#include "crdt/geo_broadcast.h"

#include "common/status.h"

namespace evc::crdt {

namespace {
constexpr char kOpMsg[] = "gb.op";
}  // namespace

GeoBroadcast::GeoBroadcast(sim::Network* network, GeoBroadcastOptions options)
    : network_(network), options_(options) {
  EVC_CHECK(network_ != nullptr);
  op_type_ = network_->InternType(kOpMsg);
}

void GeoBroadcast::AddMember(sim::NodeId node, DeliverFn deliver) {
  const uint32_t index = static_cast<uint32_t>(members_.size());
  Member member;
  member.node = node;
  member.index = index;
  member.deliver = std::move(deliver);
  members_.push_back(std::move(member));

  network_->RegisterHandler(node, op_type_, [this, index](sim::Message msg) {
    Receive(&members_[index], std::move(msg.payload).Take<StampedOp>());
  });
}

void GeoBroadcast::Publish(uint32_t index, sim::Payload op) {
  EVC_CHECK(index < members_.size());
  Member& origin = members_[index];
  StampedOp stamped;
  stamped.origin = index;
  stamped.deps = origin.seen.vector();
  stamped.seq = origin.seen.NextDot(index).counter;  // local echo's dot
  stamped.op = std::move(op);

  ++origin.delivered;
  origin.deliver(index, stamped.op);

  // Each peer gets its own deep copy, as each send owns its payload (the
  // seed's std::any made the same per-peer copy implicitly).
  const uint64_t stamp_bytes = 12 * (1 + stamped.deps.size());
  for (Member& peer : members_) {
    if (peer.index == index) continue;
    stamp_bytes_sent_ += stamp_bytes;
    network_->Send(origin.node, peer.node, op_type_, stamped.Clone());
  }
}

bool GeoBroadcast::Ready(const Member& member, const StampedOp& op) const {
  const VectorClock& clock = member.seen.vector();
  if (clock.Get(op.origin) + 1 != op.seq) return false;
  for (const auto& [replica, counter] : op.deps.entries()) {
    if (replica == op.origin) continue;
    if (clock.Get(replica) < counter) return false;
  }
  return true;
}

void GeoBroadcast::Receive(Member* member, StampedOp op) {
  if (!options_.causal) {
    // Arrival-order delivery (the broken baseline), still exactly once: an
    // op is a duplicate only if its exact (origin, seq) was delivered, so
    // an earlier op that arrives late is applied, not dropped.
    const Dot dot{op.origin, op.seq};
    if (member->seen.Contains(dot)) return;
    member->seen.Add(dot);
    ++member->delivered;
    member->deliver(op.origin, op.op);
    return;
  }
  member->pending.push_back(std::move(op));
  Drain(member);
}

size_t GeoBroadcast::PendingAt(uint32_t index) const {
  EVC_CHECK(index < members_.size());
  return members_[index].pending.size();
}

void GeoBroadcast::Drain(Member* member) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = member->pending.begin(); it != member->pending.end();
         ++it) {
      if (member->seen.Contains(Dot{it->origin, it->seq})) {
        member->pending.erase(it);  // duplicate
        progress = true;
        break;
      }
      if (!Ready(*member, *it)) continue;
      StampedOp op = std::move(*it);
      member->pending.erase(it);
      member->seen.Add(Dot{op.origin, op.seq});
      ++member->delivered;
      member->deliver(op.origin, op.op);
      progress = true;
      break;
    }
  }
}

}  // namespace evc::crdt

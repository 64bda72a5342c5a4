// Causal broadcast over the simulated network, for op-based CRDT
// replication between geo-distributed replicas.
//
// Each published op is stamped with its origin, a per-origin sequence
// number and the origin's delivered vector, then broadcast; receivers
// buffer ops until causally ready. The `causal` switch exists to measure
// what the contract is worth (Fig. 6e): with it off, ops apply in arrival
// order, still exactly once, and an OR-set remove can arrive before the add
// it observed — the removed element then resurrects on that replica
// *permanently* (the zombie-element anomaly).

#ifndef EVC_CRDT_GEO_BROADCAST_H_
#define EVC_CRDT_GEO_BROADCAST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "clock/version_vector.h"
#include "crdt/delta_orset.h"
#include "sim/network.h"

namespace evc::crdt {

struct GeoBroadcastOptions {
  /// Enforce causal delivery (buffer out-of-order ops). Off = apply in
  /// arrival order (the broken baseline Fig. 6e measures).
  bool causal = true;
};

/// Broadcast among a fixed group of network nodes. Delivery callbacks
/// receive the op payload (a slab-backed sim::Payload, as elsewhere on the
/// simulated network) in causal order when enabled. Nothing is
/// retransmitted: an op the network drops never reaches that peer.
class GeoBroadcast {
 public:
  GeoBroadcast(sim::Network* network, GeoBroadcastOptions options = {});

  using DeliverFn =
      std::function<void(uint32_t origin_index, const sim::Payload&)>;

  /// Registers `node` as member number `index` (0-based, dense). All
  /// members must be added before the first Publish.
  void AddMember(sim::NodeId node, DeliverFn deliver);

  /// Publishes an op from member `index`: delivers locally at once, then
  /// broadcasts. Exactly-once per member; causal order per options.
  void Publish(uint32_t index, sim::Payload op);

  /// Convenience: boxes `op` into the simulator's slab and publishes it.
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, sim::Payload>>>
  void Publish(uint32_t index, T&& op) {
    Publish(index, sim::Payload(&network_->simulator()->slab(),
                                std::forward<T>(op)));
  }

  size_t member_count() const { return members_.size(); }
  /// Ops buffered awaiting causal readiness at member `index`.
  size_t PendingAt(uint32_t index) const;
  uint64_t delivered_at(uint32_t index) const {
    return members_[index].delivered;
  }
  /// Bytes of (origin, seq) and deps stamps sent to peers, at the 12 bytes
  /// per entry that StateBytes uses; the ops' own bytes are the caller's.
  uint64_t stamp_bytes_sent() const { return stamp_bytes_sent_; }

 private:
  struct StampedOp {
    uint32_t origin = 0;
    uint64_t seq = 0;
    VectorClock deps;
    sim::Payload op;

    StampedOp Clone() const {  // duplicate-delivery fault support
      StampedOp c;
      c.origin = origin;
      c.seq = seq;
      c.deps = deps;
      c.op = op.Clone();
      return c;
    }
  };
  struct Member {
    // Explicit noexcept move: members_ reallocation must move, not copy
    // (pending StampedOps hold move-only Payloads).
    Member() = default;
    Member(Member&&) noexcept = default;
    Member& operator=(Member&&) noexcept = default;

    sim::NodeId node = 0;
    uint32_t index = 0;
    DotContext seen;  // every (origin, seq) delivered here
    std::deque<StampedOp> pending;
    DeliverFn deliver;
    uint64_t delivered = 0;
  };

  bool Ready(const Member& member, const StampedOp& op) const;
  void Receive(Member* member, StampedOp op);
  void Drain(Member* member);

  sim::MsgType op_type_ = 0;
  sim::Network* network_;
  GeoBroadcastOptions options_;
  std::vector<Member> members_;
  uint64_t stamp_bytes_sent_ = 0;
};

}  // namespace evc::crdt

#endif  // EVC_CRDT_GEO_BROADCAST_H_

#include "sim/network.h"

#include "common/logging.h"

namespace evc::sim {

Network::Network(Simulator* sim, std::unique_ptr<LatencyModel> latency)
    : sim_(sim),
      latency_(std::move(latency)),
      rng_(sim->rng().Fork(0x4e455457)) {
  EVC_CHECK(sim_ != nullptr);
  EVC_CHECK(latency_ != nullptr);
  obs::MetricsRegistry& g = sim_->metrics().global();
  metrics_.sent = &g.CounterFor("net.sent");
  metrics_.delivered = &g.CounterFor("net.delivered");
  metrics_.duplicated = &g.CounterFor("net.duplicated");
  metrics_.drop_crashed = &g.CounterFor("net.drop.crashed");
  metrics_.drop_partition = &g.CounterFor("net.drop.partition");
  metrics_.drop_loss = &g.CounterFor("net.drop.loss");
  metrics_.drop_flaky = &g.CounterFor("net.drop.flaky");
  metrics_.drop_no_handler = &g.CounterFor("net.drop.no_handler");
  metrics_.delivery_latency_us = &g.HistogramFor("net.delivery_latency_us");
}

NodeId Network::AddNode() {
  const NodeId id = static_cast<NodeId>(node_up_.size());
  node_up_.push_back(true);
  node_group_.push_back(0);
  handlers_.emplace_back();
  obs::MetricsRegistry& reg = sim_->metrics().node(id);
  node_sent_.push_back(&reg.CounterFor("net.sent"));
  node_delivered_.push_back(&reg.CounterFor("net.delivered"));
  return id;
}

void Network::RegisterHandler(NodeId node, MsgType type,
                              MessageHandler handler) {
  EVC_CHECK(node < handlers_.size());
  EVC_CHECK(type < type_interner_.size());
  auto& node_handlers = handlers_[node];
  if (node_handlers.size() <= type) node_handlers.resize(type + 1);
  node_handlers[type] = std::move(handler);
}

uint32_t Network::GroupOf(NodeId node) const {
  return node < node_group_.size() ? node_group_[node] : 0;
}

bool Network::CanCommunicate(NodeId a, NodeId b) const {
  if (!IsNodeUp(a) || !IsNodeUp(b)) return false;
  if (!partitioned_) return true;
  return GroupOf(a) == GroupOf(b);
}

void Network::SetNodeUp(NodeId node, bool up) {
  EVC_CHECK(node < node_up_.size());
  node_up_[node] = up;
}

bool Network::IsNodeUp(NodeId node) const {
  return node < node_up_.size() && node_up_[node];
}

void Network::Partition(const std::vector<std::vector<NodeId>>& groups) {
  for (auto& g : node_group_) g = 0;
  uint32_t group_id = 1;
  for (const auto& group : groups) {
    for (NodeId n : group) {
      EVC_CHECK(n < node_group_.size());
      node_group_[n] = group_id;
    }
    ++group_id;
  }
  partitioned_ = true;
}

void Network::Heal() {
  partitioned_ = false;
  for (auto& g : node_group_) g = 0;
}

uint64_t Network::LinkKey(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void Network::SetLinkLatencyFactor(NodeId a, NodeId b, double factor) {
  EVC_CHECK(factor > 0.0);
  if (factor == 1.0) {
    link_latency_factor_.erase(LinkKey(a, b));
  } else {
    link_latency_factor_[LinkKey(a, b)] = factor;
  }
}

double Network::LinkLatencyFactor(NodeId a, NodeId b) const {
  auto it = link_latency_factor_.find(LinkKey(a, b));
  return it == link_latency_factor_.end() ? 1.0 : it->second;
}

void Network::SetLinkDropRate(NodeId a, NodeId b, double rate) {
  EVC_CHECK(rate >= 0.0 && rate <= 1.0);
  if (rate == 0.0) {
    link_drop_rate_.erase(LinkKey(a, b));
  } else {
    link_drop_rate_[LinkKey(a, b)] = rate;
  }
}

double Network::LinkDropRate(NodeId a, NodeId b) const {
  auto it = link_drop_rate_.find(LinkKey(a, b));
  return it == link_drop_rate_.end() ? 0.0 : it->second;
}

void Network::SetNodeProcessingDelay(NodeId node, Time delay) {
  EVC_CHECK(delay >= 0);
  if (delay == 0) {
    node_delay_.erase(node);
  } else {
    node_delay_[node] = delay;
  }
}

Time Network::NodeProcessingDelay(NodeId node) const {
  auto it = node_delay_.find(node);
  return it == node_delay_.end() ? 0 : it->second;
}

void Network::ClearGrayFaults() {
  link_latency_factor_.clear();
  link_drop_rate_.clear();
  node_delay_.clear();
}

void Network::Send(NodeId from, NodeId to, MsgType type, Payload payload) {
  ++messages_sent_;
  if (sent_by_type_.size() <= type) sent_by_type_.resize(type + 1, 0);
  ++sent_by_type_[type];
  metrics_.sent->Inc();
  if (from < node_sent_.size()) node_sent_[from]->Inc();
  if (!IsNodeUp(from) || !IsNodeUp(to)) {
    ++messages_dropped_;
    metrics_.drop_crashed->Inc();
    return;
  }
  if (!CanCommunicate(from, to)) {
    ++messages_dropped_;
    metrics_.drop_partition->Inc();
    return;
  }
  if (loss_rate_ > 0 && rng_.NextBool(loss_rate_)) {
    ++messages_dropped_;
    metrics_.drop_loss->Inc();
    return;
  }
  // Most runs set no gray fault; Send then reads none of their tables.
  const bool gray = HasGrayFaults();
  if (const double flaky = gray ? LinkDropRate(from, to) : 0.0;
      flaky > 0 && rng_.NextBool(flaky)) {
    ++messages_dropped_;
    metrics_.drop_flaky->Inc();
    return;
  }
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.sent_at = sim_->Now();

  // Gray faults stretch delivery: slow links scale the sampled latency,
  // slow nodes add processing delay at both sender and receiver.
  Time latency = latency_->Sample(from, to, rng_);
  if (gray) {
    if (const double factor = LinkLatencyFactor(from, to); factor != 1.0) {
      latency = static_cast<Time>(static_cast<double>(latency) * factor);
    }
    latency += NodeProcessingDelay(from) + NodeProcessingDelay(to);
  }
  const bool duplicate = duplicate_rate_ > 0 && rng_.NextBool(duplicate_rate_);
  if (duplicate) {
    metrics_.duplicated->Inc();
    // A packet duplicated in flight carries the same bytes: deep-copy the
    // payload (the only payload copy left in the network).
    Message copy;
    copy.from = msg.from;
    copy.to = msg.to;
    copy.type = msg.type;
    copy.payload = msg.payload.Clone();
    copy.sent_at = msg.sent_at;
    const Time extra = latency_->Sample(from, to, rng_);
    sim_->ScheduleAfter(latency + extra,
                        [this, m = std::move(copy)]() mutable {
                          Deliver(std::move(m));
                        });
  }
  sim_->ScheduleAfter(latency, [this, m = std::move(msg)]() mutable {
    Deliver(std::move(m));
  });
}

void Network::Deliver(Message msg) {
  // Re-check reachability at delivery time: a partition or crash that began
  // while the message was in flight also prevents delivery.
  if (!IsNodeUp(msg.to)) {
    ++messages_dropped_;
    metrics_.drop_crashed->Inc();
    return;
  }
  if (!CanCommunicate(msg.from, msg.to)) {
    ++messages_dropped_;
    metrics_.drop_partition->Inc();
    return;
  }
  auto& node_handlers = handlers_[msg.to];
  if (msg.type >= node_handlers.size() || !node_handlers[msg.type]) {
    EVC_LOG_WARN("node %u has no handler for message type '%s'", msg.to,
                 std::string(TypeName(msg.type)).c_str());
    ++messages_dropped_;
    metrics_.drop_no_handler->Inc();
    return;
  }
  ++messages_delivered_;
  metrics_.delivered->Inc();
  if (msg.to < node_delivered_.size()) node_delivered_[msg.to]->Inc();
  metrics_.delivery_latency_us->Add(
      static_cast<double>(sim_->Now() - msg.sent_at));
  node_handlers[msg.type](std::move(msg));
}

}  // namespace evc::sim

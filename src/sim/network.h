// Simulated message-passing network with fault injection.
//
// Nodes are integer ids; components register per-message-type handlers on a
// node. Delivery latency comes from a pluggable LatencyModel; faults include
// probabilistic loss, duplication, node crashes, and named network
// partitions (the CAP experiments drive these directly).
//
// Hot-path design: message types are interned to dense MsgType ids at
// registration time, so sends and deliveries index flat vectors instead of
// hashing strings; payloads ride slab-backed move-only Payload boxes
// (sim/payload.h) instead of std::any, so a send transfers ownership with
// two pointer copies and the only deep copy left is the duplicate-delivery
// fault (an in-flight packet genuinely duplicated on the wire).

#ifndef EVC_SIM_NETWORK_H_
#define EVC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "sim/latency.h"
#include "sim/payload.h"
#include "sim/simulator.h"

namespace evc::sim {

/// Dense id for an interned message-type name; see Network::InternType.
using MsgType = KeyId;

/// A delivered message. `payload` is a slab-backed box moved from the
/// sender; the handler Takes it as the protocol's request struct. (The
/// simulator substitutes for the wire, so no byte serialization is
/// required; modules that need real serialization — the WAL, Merkle trees —
/// use common/encoding.h.)
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  MsgType type = kInvalidKeyId;
  Payload payload;
  Time sent_at = 0;
};

/// Handler invoked at delivery time on the destination node.
using MessageHandler = std::function<void(Message)>;

/// Simulated network. Single-threaded; owned by one Simulator.
class Network {
 public:
  Network(Simulator* sim, std::unique_ptr<LatencyModel> latency);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Allocates a new node id. Nodes start up (not crashed).
  NodeId AddNode();

  /// Number of nodes allocated so far.
  size_t node_count() const { return node_up_.size(); }

  /// Interns a message-type name, returning its dense id. Deterministic for
  /// a fixed registration order (ids assigned in first-intern order).
  /// Components intern each type once at setup and send by id.
  MsgType InternType(std::string_view name) {
    return type_interner_.Intern(name);
  }
  /// The canonical name for an interned type (diagnostics, exports).
  std::string_view TypeName(MsgType type) const {
    return type_interner_.NameOf(type);
  }

  /// Registers the handler for messages of `type` addressed to `node`.
  /// Overwrites any existing handler for that (node, type).
  void RegisterHandler(NodeId node, MsgType type, MessageHandler handler);
  /// Convenience: interns `type` then registers.
  void RegisterHandler(NodeId node, std::string_view type,
                       MessageHandler handler) {
    RegisterHandler(node, InternType(type), std::move(handler));
  }

  /// Sends a message. The message is dropped (silently, as on a real
  /// network) if the sender is crashed, the destination is crashed at
  /// delivery time, the two nodes are partitioned at send or delivery time,
  /// or the loss coin comes up tails.
  void Send(NodeId from, NodeId to, MsgType type, Payload payload);

  /// Convenience: boxes `value` into the simulator's slab and sends it.
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Payload>>>
  void Send(NodeId from, NodeId to, MsgType type, T&& value) {
    Send(from, to, type, Payload(&sim_->slab(), std::forward<T>(value)));
  }

  /// Convenience (tests, cold paths): interns `type` on every call, then
  /// sends. Hot paths intern once at setup and use the MsgType overloads.
  template <typename T>
  void Send(NodeId from, NodeId to, std::string_view type, T&& value) {
    Send(from, to, InternType(type), std::forward<T>(value));
  }

  // --- fault injection -----------------------------------------------------

  /// Probability in [0,1] that any given transmission is lost.
  void set_loss_rate(double p) { loss_rate_ = p; }
  /// Probability in [0,1] that a delivered message is delivered twice.
  void set_duplicate_rate(double p) { duplicate_rate_ = p; }

  /// Crashes or restarts a node at the network layer only: a crashed node
  /// receives nothing, but volatile protocol state survives. A Nemesis with
  /// amnesia (its default) additionally notifies Simulator CrashParticipants
  /// so components drop volatile state and recover from their journals (see
  /// sim/nemesis.h).
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  /// Splits the network into groups; messages across groups are dropped.
  /// Nodes not listed go to group 0. Replaces any previous partition.
  void Partition(const std::vector<std::vector<NodeId>>& groups);
  /// Removes any partition.
  void Heal();
  /// True if a and b can currently exchange messages (both up, same side).
  /// Deliberately blind to gray failures below: a slow or flaky link still
  /// "communicates" as far as this oracle is concerned — that gap is exactly
  /// what client-side failure detectors (src/resilience) must close.
  bool CanCommunicate(NodeId a, NodeId b) const;

  // --- gray failures (partial, non-binary faults) --------------------------
  //
  // The link knobs are symmetric (one value per unordered node pair); a
  // factor of 1.0 / rate of 0.0 / delay of 0 clears the entry.

  /// Multiplies sampled delivery latency on the a<->b link by `factor`.
  void SetLinkLatencyFactor(NodeId a, NodeId b, double factor);
  double LinkLatencyFactor(NodeId a, NodeId b) const;

  /// Probability in [0,1] that a transmission on the a<->b link is dropped,
  /// independent of the global loss rate.
  void SetLinkDropRate(NodeId a, NodeId b, double rate);
  double LinkDropRate(NodeId a, NodeId b) const;

  /// Extra processing delay added to every message into or out of `node`
  /// (a "limping" node: alive, answering, but slow).
  void SetNodeProcessingDelay(NodeId node, Time delay);
  Time NodeProcessingDelay(NodeId node) const;

  /// Clears all slow-link, flaky-link, and slow-node state.
  void ClearGrayFaults();
  bool HasGrayFaults() const {
    return !link_latency_factor_.empty() || !link_drop_rate_.empty() ||
           !node_delay_.empty();
  }

  // --- introspection -------------------------------------------------------

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  /// Messages sent of one interned type (payload-agnostic, for
  /// bandwidth-ish accounting in experiments). Index with an id from
  /// InternType; ids ≥ the table size have sent nothing.
  uint64_t sent_of_type(MsgType type) const {
    return type < sent_by_type_.size() ? sent_by_type_[type] : 0;
  }
  /// Number of interned message types (the valid sent_of_type id range).
  size_t type_count() const { return type_interner_.size(); }

  Simulator* simulator() { return sim_; }
  LatencyModel* latency_model() { return latency_.get(); }

 private:
  void Deliver(Message msg);
  uint32_t GroupOf(NodeId node) const;
  static uint64_t LinkKey(NodeId a, NodeId b);

  // Cached global metrics instruments (stable references; see obs/metrics.h).
  struct NetMetrics {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* drop_crashed = nullptr;
    obs::Counter* drop_partition = nullptr;
    obs::Counter* drop_loss = nullptr;
    obs::Counter* drop_flaky = nullptr;
    obs::Counter* drop_no_handler = nullptr;
    Histogram* delivery_latency_us = nullptr;  // evc::Histogram (common/stats.h)
  };

  Simulator* sim_;
  NetMetrics metrics_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  std::vector<bool> node_up_;
  std::vector<uint32_t> node_group_;
  bool partitioned_ = false;
  double loss_rate_ = 0.0;
  double duplicate_rate_ = 0.0;
  // Gray-failure state, keyed by unordered node pair (LinkKey) or node.
  // Lookup-only maps (never iterated beyond empty()/clear()).
  std::unordered_map<uint64_t, double> link_latency_factor_;
  std::unordered_map<uint64_t, double> link_drop_rate_;
  std::unordered_map<NodeId, Time> node_delay_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  KeyInterner type_interner_;
  std::vector<uint64_t> sent_by_type_;  // indexed by MsgType
  // handlers_[node][type]; inner vector indexed by MsgType, grown on
  // registration. Empty std::function = no handler.
  std::vector<std::vector<MessageHandler>> handlers_;
  // Cached per-node "net.sent"/"net.delivered" counters, indexed by node
  // (the seed did a registry map lookup per message).
  std::vector<obs::Counter*> node_sent_;
  std::vector<obs::Counter*> node_delivered_;
};

}  // namespace evc::sim

#endif  // EVC_SIM_NETWORK_H_

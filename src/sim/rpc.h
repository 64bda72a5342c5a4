// Request/response layer over the simulated network.
//
// Protocol coordinators (quorum reads, Paxos phases, dep-checks) are written
// against asynchronous RPC with timeouts: a lost request or reply, a crashed
// peer, or a partition all surface as Status::TimedOut at the caller.
//
// Hot-path design mirrors the network layer: methods are interned to dense
// MethodId ids (with the client/server trace-span names precomputed at
// intern time, so no per-call string concatenation), dispatch indexes flat
// vectors, request/reply values ride slab-backed Payload boxes, and the
// metric instruments are resolved once in the constructor. In-flight calls
// sit in a slot table addressed by their call id, and piggybacked peer
// load in one row per observer: a reply finds both without hashing.

#ifndef EVC_SIM_RPC_H_
#define EVC_SIM_RPC_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "sim/network.h"
#include "sim/node_table.h"
#include "sim/payload.h"

namespace evc::sim {

/// Dense id for an interned RPC method name; see Rpc::InternMethod.
using MethodId = KeyId;

/// Completion callback for an RPC: either the peer's reply payload or an
/// error (TimedOut for loss/crash/partition, or the application Status the
/// server handler returned).
using RpcCallback = std::function<void(Result<Payload>)>;

/// Replies to an in-flight RPC. May be invoked after the handler returns
/// (asynchronous servers); must be invoked at most once.
class RpcResponder {
 public:
  RpcResponder() = default;
  RpcResponder(Slab* slab, std::function<void(Result<Payload>)> fn)
      : slab_(slab), fn_(std::move(fn)) {}
  void operator()(Result<Payload> result) const {
    EVC_CHECK(fn_ != nullptr);
    fn_(std::move(result));
  }
  /// Convenience: boxes a raw reply struct into the simulator's slab.
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Result<Payload>> &&
                !std::is_same_v<std::decay_t<T>, Payload> &&
                !std::is_same_v<std::decay_t<T>, Status>>>
  void operator()(T&& value) const {
    EVC_CHECK(fn_ != nullptr);
    fn_(Payload(slab_, std::forward<T>(value)));
  }

 private:
  Slab* slab_ = nullptr;
  std::function<void(Result<Payload>)> fn_;
};

/// Server-side method handler: `request` is the caller's payload; call
/// `respond` (now or later) to complete the RPC.
using RpcHandler =
    std::function<void(NodeId from, Payload request, RpcResponder respond)>;

/// Server-side admission hook. When a gate is installed for a node, every
/// inbound request to that node is offered to the gate instead of running
/// its handler directly: the gate either runs `dispatch` (now or later — a
/// queued request keeps its responder alive), or rejects by invoking
/// `respond` with an error Status and dropping `dispatch`.
///
/// Declared here (not in resilience/) so sim stays dependency-free; the
/// production implementation is resilience::AdmissionQueue.
class RequestGate {
 public:
  virtual ~RequestGate() = default;
  /// Offers one inbound request. Exactly one of `dispatch` / `respond`
  /// must eventually be used.
  virtual void Admit(MethodId method, std::function<void()> dispatch,
                     RpcResponder respond) = 0;
  /// Instantaneous node load in [0, 100], piggybacked on every outgoing
  /// reply so callers can make background traffic yield (see PeerLoad).
  virtual uint32_t LoadPercent() const = 0;
};

/// One Rpc instance serves a whole Network (it multiplexes by node id).
class Rpc {
 public:
  explicit Rpc(Network* network);

  /// Interns an RPC method name, returning its dense id and precomputing
  /// the call's trace-span names. Components intern each method once at
  /// setup and call by id.
  MethodId InternMethod(std::string_view method);
  /// The canonical name for an interned method (diagnostics).
  std::string_view MethodName(MethodId method) const {
    return method_interner_.NameOf(method);
  }

  /// Registers `handler` for calls of `method` addressed to `node`.
  void RegisterHandler(NodeId node, MethodId method, RpcHandler handler);
  /// Convenience: interns `method` then registers.
  void RegisterHandler(NodeId node, std::string_view method,
                       RpcHandler handler) {
    RegisterHandler(node, InternMethod(method), std::move(handler));
  }

  /// Issues an asynchronous call. `cb` fires exactly once: with the reply,
  /// or with TimedOut after `timeout` elapses without one.
  void Call(NodeId from, NodeId to, MethodId method, Payload request,
            Time timeout, RpcCallback cb);

  /// Convenience: boxes `request` into the simulator's slab and calls.
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Payload>>>
  void Call(NodeId from, NodeId to, MethodId method, T&& request,
            Time timeout, RpcCallback cb) {
    Call(from, to, method,
         Payload(&simulator()->slab(), std::forward<T>(request)), timeout,
         std::move(cb));
  }

  /// Convenience (tests, cold paths): interns `method` on every call.
  /// Hot paths intern once at setup and call by MethodId.
  template <typename T>
  void Call(NodeId from, NodeId to, std::string_view method, T&& request,
            Time timeout, RpcCallback cb) {
    Call(from, to, InternMethod(method), std::forward<T>(request), timeout,
         std::move(cb));
  }

  /// Installs (or clears, with nullptr) the admission gate for `node`.
  /// Not owned; the gate must outlive the Rpc or be cleared first.
  void SetRequestGate(NodeId node, RequestGate* gate);
  RequestGate* request_gate(NodeId node) const {
    return node < gates_.size() ? gates_[node] : nullptr;
  }

  /// The most recent load signal `observer` saw piggybacked on a reply from
  /// `peer` (0..100). Returns 0 when no reply arrived recently: a stale
  /// signal must not suppress background traffic forever, so samples expire
  /// after kLoadSignalTtl and the next probe refreshes them.
  uint32_t PeerLoad(NodeId observer, NodeId peer) const;

  /// How long a piggybacked load sample stays authoritative.
  static constexpr Time kLoadSignalTtl = 1 * kSecond;

  Network* network() { return network_; }
  Simulator* simulator() { return network_->simulator(); }

  /// Total RPCs issued (diagnostic).
  uint64_t calls_issued() const { return calls_issued_; }

 private:
  struct RequestEnvelope {
    uint64_t call_id;
    MethodId method;
    Payload payload;
    uint64_t span = 0;  ///< caller's trace span (cross-node parenting)

    RequestEnvelope Clone() const {  // duplicate-delivery fault support
      return RequestEnvelope{call_id, method, payload.Clone(), span};
    }
  };
  struct ReplyEnvelope {
    uint64_t call_id;
    Status status;
    Payload payload;
    uint32_t load = 0;  ///< replier's RequestGate::LoadPercent at send time

    ReplyEnvelope Clone() const {
      return ReplyEnvelope{call_id, status, payload.Clone(), load};
    }
  };
  struct Pending {
    RpcCallback cb;
    EventId timeout_event = 0;
    uint64_t span = 0;        ///< client-side span of this call
    uint64_t span_parent = 0; ///< restored as ambient parent around `cb`
    Time started_at = 0;
  };
  struct CallSlot {
    /// Generation of the slot's current (or next) call. A call id is
    /// (gen << 32) | slot, and freeing the slot bumps gen, so the id of a
    /// completed call stops matching, even once a newer call reuses the
    /// slot (the scheme EventQueue's EventIds use).
    uint32_t gen = 1;
    Pending pending;
  };

  /// Moves the in-flight call `call_id` names into `*out` and frees its
  /// slot. False when that call already completed or timed out.
  bool TakeCall(uint64_t call_id, Pending* out);
  void OnRequest(Message msg);
  void OnReply(Message msg);
  void HookRequests(NodeId node);
  void HookReplies(NodeId node);

  Network* network_;
  MsgType request_type_;
  MsgType reply_type_;
  uint64_t calls_issued_ = 0;
  // In-flight calls by slot; free slots are reused LIFO (deterministic).
  std::vector<CallSlot> slots_;
  std::vector<uint32_t> free_slots_;
  KeyInterner method_interner_;
  // Precomputed tracer name ids, indexed by MethodId
  // ("rpc.<m>"/"rpc.server.<m>"): opening a span never builds a string.
  std::vector<KeyId> client_span_names_;
  std::vector<KeyId> server_span_names_;
  KeyId outcome_ok_ = kInvalidKeyId;
  KeyId outcome_timeout_ = kInvalidKeyId;
  // handlers_[node][method]; empty std::function = unregistered.
  std::vector<std::vector<RpcHandler>> handlers_;
  // gates_[node]: admission gate, nullptr = dispatch directly (the default).
  std::vector<RequestGate*> gates_;
  // Last piggybacked load sample per (observer, peer) pair: one row per
  // observer, indexed by peer. A pair never sampled reads as load 0.
  struct LoadSample {
    uint32_t load = 0;
    Time at = 0;
  };
  NodeTable<NodeTable<LoadSample>> peer_load_;
  // Which nodes have the rpc.request / rpc.reply network dispatchers
  // installed (the seed re-registered a fresh reply closure on every Call).
  std::vector<bool> req_hooked_;
  std::vector<bool> reply_hooked_;
  // Cached global instruments.
  obs::Counter* calls_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* late_replies_ = nullptr;
  obs::Counter* app_errors_ = nullptr;
  Histogram* call_latency_us_ = nullptr;
};

}  // namespace evc::sim

#endif  // EVC_SIM_RPC_H_

#include "sim/rpc.h"

#include <memory>

#include "common/logging.h"
#include "obs/trace.h"

namespace evc::sim {

Rpc::Rpc(Network* network) : network_(network) {
  EVC_CHECK(network_ != nullptr);
  request_type_ = network_->InternType("rpc.request");
  reply_type_ = network_->InternType("rpc.reply");
  obs::MetricsRegistry& g = simulator()->metrics().global();
  calls_ = &g.CounterFor("rpc.calls");
  timeouts_ = &g.CounterFor("rpc.timeouts");
  late_replies_ = &g.CounterFor("rpc.late_replies");
  app_errors_ = &g.CounterFor("rpc.app_errors");
  call_latency_us_ = &g.HistogramFor("rpc.call_latency_us");
  obs::Tracer& tracer = simulator()->tracer();
  outcome_ok_ = tracer.InternName("ok");
  outcome_timeout_ = tracer.InternName("timeout");
}

MethodId Rpc::InternMethod(std::string_view method) {
  const MethodId id = method_interner_.Intern(method);
  if (id >= client_span_names_.size()) {
    obs::Tracer& tracer = simulator()->tracer();
    client_span_names_.push_back(
        tracer.InternName("rpc." + std::string(method)));
    server_span_names_.push_back(
        tracer.InternName("rpc.server." + std::string(method)));
  }
  return id;
}

void Rpc::HookRequests(NodeId node) {
  if (node < req_hooked_.size() && req_hooked_[node]) return;
  if (req_hooked_.size() <= node) req_hooked_.resize(node + 1, false);
  req_hooked_[node] = true;
  network_->RegisterHandler(node, request_type_,
                            [this](Message msg) { OnRequest(std::move(msg)); });
}

void Rpc::HookReplies(NodeId node) {
  if (node < reply_hooked_.size() && reply_hooked_[node]) return;
  if (reply_hooked_.size() <= node) reply_hooked_.resize(node + 1, false);
  reply_hooked_[node] = true;
  network_->RegisterHandler(node, reply_type_,
                            [this](Message msg) { OnReply(std::move(msg)); });
}

void Rpc::RegisterHandler(NodeId node, MethodId method, RpcHandler handler) {
  HookRequests(node);
  if (handlers_.size() <= node) handlers_.resize(node + 1);
  auto& node_handlers = handlers_[node];
  if (node_handlers.size() <= method) node_handlers.resize(method + 1);
  node_handlers[method] = std::move(handler);
}

void Rpc::SetRequestGate(NodeId node, RequestGate* gate) {
  if (gates_.size() <= node) gates_.resize(node + 1, nullptr);
  gates_[node] = gate;
}

uint32_t Rpc::PeerLoad(NodeId observer, NodeId peer) const {
  const LoadSample& sample = peer_load_.Get(observer).Get(peer);
  if (network_->simulator()->Now() - sample.at > kLoadSignalTtl) return 0;
  return sample.load;
}

bool Rpc::TakeCall(uint64_t call_id, Pending* out) {
  const auto slot = static_cast<uint32_t>(call_id);
  if (slot >= slots_.size() || slots_[slot].gen != call_id >> 32) {
    return false;
  }
  CallSlot& s = slots_[slot];
  *out = std::move(s.pending);
  s.pending.cb = nullptr;
  // gen 0 is skipped on wraparound, as in EventQueue.
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
  return true;
}

void Rpc::Call(NodeId from, NodeId to, MethodId method, Payload request,
               Time timeout, RpcCallback cb) {
  // Ensure the caller can receive replies.
  HookReplies(from);

  ++calls_issued_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint64_t call_id = (uint64_t{slots_[slot].gen} << 32) | slot;
  Simulator* sim = simulator();
  obs::Tracer& tracer = sim->tracer();
  calls_->Inc();

  // Client-side span for the whole call, parented to whatever span is
  // ambient (e.g. the server-side span of an enclosing coordinator RPC).
  const uint64_t span_parent = tracer.current();
  const uint64_t span =
      tracer.Begin(from, client_span_names_[method], sim->Now());

  const EventId timeout_event = sim->ScheduleAfter(timeout, [this, call_id] {
    Pending pending;
    if (!TakeCall(call_id, &pending)) return;
    Simulator* s = simulator();
    timeouts_->Inc();
    s->tracer().End(pending.span, s->Now(), outcome_timeout_);
    // The callback logically continues the caller's work: restore its
    // ambient span so any retry RPC it issues stays on the same trace tree.
    obs::Tracer::Scope scope(&s->tracer(), pending.span_parent);
    pending.cb(Status::TimedOut("rpc timeout"));
  });
  slots_[slot].pending =
      Pending{std::move(cb), timeout_event, span, span_parent, sim->Now()};

  RequestEnvelope env{call_id, method, std::move(request), span};
  network_->Send(from, to, request_type_, std::move(env));
}

void Rpc::OnRequest(Message msg) {
  auto env = std::move(msg.payload).Take<RequestEnvelope>();
  const NodeId server = msg.to;
  const NodeId client = msg.from;

  const RpcHandler* handler = nullptr;
  if (server < handlers_.size() && env.method < handlers_[server].size() &&
      handlers_[server][env.method]) {
    handler = &handlers_[server][env.method];
  }
  if (handler == nullptr) {
    EVC_LOG_WARN("node %u: no rpc handler for method '%s'", server,
                 std::string(MethodName(env.method)).c_str());
    return;
  }

  const uint64_t call_id = env.call_id;
  Rpc* self = this;
  Simulator* sim = simulator();
  obs::Tracer& tracer = sim->tracer();
  // Server-side span, parented across the wire to the client's call span.
  // Begun at arrival, so queueing inside an admission gate shows up as
  // span duration.
  const uint64_t srv_span = tracer.BeginChild(
      env.span, server, server_span_names_[env.method], sim->Now());
  RpcResponder responder(
      &sim->slab(),
      [self, server, client, call_id, srv_span](Result<Payload> r) {
        Simulator* s = self->simulator();
        s->tracer().End(srv_span, s->Now(),
                        r.ok() ? self->outcome_ok_
                               : s->tracer().InternName(
                                     StatusCodeToString(r.status().code())));
        // Piggyback the node's current load on every reply — including
        // rejections, which is how an overloaded node tells background
        // callers to yield.
        const RequestGate* gate = self->request_gate(server);
        ReplyEnvelope reply{call_id,
                            r.ok() ? Status::OK() : r.status(),
                            r.ok() ? std::move(r).value() : Payload{},
                            gate != nullptr ? gate->LoadPercent() : 0};
        self->network_->Send(server, client, self->reply_type_,
                             std::move(reply));
      });

  RequestGate* gate = request_gate(server);
  if (gate == nullptr) {
    // Handlers run with the server span ambient, so RPCs they issue
    // synchronously (quorum fan-outs, Paxos phases) become its children.
    obs::Tracer::Scope scope(&tracer, srv_span);
    (*handler)(client, std::move(env.payload), std::move(responder));
    return;
  }

  // Gated dispatch: the payload moves into a shared box (std::function
  // requires copyable closures) and the handler is re-looked-up at run
  // time. A crash while queued voids the dispatch — the node must not
  // serve requests it logically lost.
  const MethodId method = env.method;
  auto payload = std::make_shared<Payload>(std::move(env.payload));
  std::function<void()> dispatch = [self, server, client, method, payload,
                                    responder, srv_span] {
    if (!self->network_->IsNodeUp(server)) return;
    const RpcHandler& h = self->handlers_[server][method];
    if (!h) return;
    obs::Tracer::Scope scope(&self->simulator()->tracer(), srv_span);
    h(client, std::move(*payload), responder);
  };
  gate->Admit(method, std::move(dispatch), std::move(responder));
}

void Rpc::OnReply(Message msg) {
  auto env = std::move(msg.payload).Take<ReplyEnvelope>();
  Pending pending;
  if (!TakeCall(env.call_id, &pending)) {
    // Late reply after timeout (or a network duplicate of a reply already
    // consumed), even when a newer call reuses the slot: ignored, but
    // counted — hedging win/loss accounting needs the number of replies
    // that raced a timeout to balance.
    late_replies_->Inc();
    return;
  }
  Simulator* sim = simulator();
  sim->Cancel(pending.timeout_event);
  // Remember the peer's piggybacked load for this (caller, replier) pair;
  // background subsystems poll it via PeerLoad before adding traffic.
  peer_load_[msg.to][msg.from] = LoadSample{env.load, sim->Now()};
  call_latency_us_->Add(static_cast<double>(sim->Now() - pending.started_at));
  sim->tracer().End(pending.span, sim->Now(),
                    env.status.ok()
                        ? outcome_ok_
                        : sim->tracer().InternName(
                              StatusCodeToString(env.status.code())));
  if (!env.status.ok()) {
    app_errors_->Inc();
  }
  obs::Tracer::Scope scope(&sim->tracer(), pending.span_parent);
  if (env.status.ok()) {
    pending.cb(std::move(env.payload));
  } else {
    pending.cb(env.status);
  }
}

}  // namespace evc::sim

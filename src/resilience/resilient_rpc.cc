#include "resilience/resilient_rpc.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "resilience/admission.h"

namespace evc::resilience {

namespace {
constexpr char kPingMethod[] = "rsl.ping";
struct PingReq {};
// Hedge delay: this percentile of successful attempt latencies, floored.
constexpr double kHedgePercentile = 0.95;
constexpr sim::Time kMinHedgeDelay = 1 * sim::kMillisecond;
// Retry-budget tokens a retry or hedge costs.
constexpr double kRetryCost = 1.0;
// AIMD concurrency limit bounds.
constexpr double kAimdMinLimit = 1.0;
constexpr double kAimdMaxLimit = 256.0;
}  // namespace

struct ResilientRpc::CallState {
  sim::NodeId to = 0;
  sim::MethodId method = 0;
  sim::Payload request;  // prototype; each leg sends a clone
  CallOptions opts;
  sim::RpcCallback cb;
  bool completed = false;
  int legs_inflight = 0;
  bool hedge_issued = false;
  bool hedge_timer_armed = false;
  sim::EventId hedge_timer = 0;
  Status last_error = Status::Unavailable("no attempt issued");
};

ResilientRpc::ResilientRpc(sim::Rpc* rpc, sim::NodeId self,
                           ResilienceOptions options, uint64_t seed)
    : rpc_(rpc),
      self_(self),
      options_(options),
      retry_(options.retry, seed ^ 0x52455452ULL),  // "RETR"
      detector_(options.detector),
      breaker_(options.breaker),
      rng_(seed),
      peers_(PeerState{options.retry_budget.initial_tokens,
                       options.aimd.initial_limit}),
      c_attempts_(&Obs(), "resilience.attempts"),
      c_heartbeats_sent_(&Obs(), "resilience.heartbeats_sent") {
  EVC_CHECK(rpc_ != nullptr);
  ping_method_ = rpc_->InternMethod(kPingMethod);
  // Answer other nodes' heartbeat probes.
  rpc_->RegisterHandler(
      self_, ping_method_,
      [](sim::NodeId, sim::Payload, sim::RpcResponder respond) {
        respond(true);
      });
}

obs::MetricsRegistry& ResilientRpc::Obs() const {
  return rpc_->simulator()->metrics().global();
}

double ResilientRpc::budget_tokens(sim::NodeId dest) const {
  return peers_.Get(dest).budget_tokens;
}

double ResilientRpc::concurrency_limit(sim::NodeId dest) const {
  return peers_.Get(dest).aimd_limit;
}

void ResilientRpc::Call(sim::NodeId to, sim::MethodId method,
                        sim::Payload request, const CallOptions& options,
                        sim::RpcCallback cb) {
  EVC_CHECK(options.max_attempts >= 1);
  EVC_CHECK(options.attempt_timeout > 0);
  auto state = std::make_shared<CallState>();
  state->to = to;
  state->method = method;
  state->request = std::move(request);
  state->opts = options;
  state->cb = std::move(cb);
  Attempt(state, 0);
}

void ResilientRpc::Attempt(const std::shared_ptr<CallState>& state,
                           int attempt) {
  sim::Simulator* sim = rpc_->simulator();
  const sim::Time now = sim->Now();
  sim::Time timeout = state->opts.attempt_timeout;
  if (state->opts.deadline > 0) {
    const sim::Time remaining = state->opts.deadline - now;
    if (remaining <= 0) {
      FailDeadline(state);
      return;
    }
    timeout = std::min(timeout, remaining);
  }
  if (state->opts.respect_breaker && options_.breaker_enabled &&
      !breaker_.AllowRequest(state->to, now)) {
    ++stats_.breaker_rejects;
    Obs().CounterFor("resilience.breaker_rejects").Inc();
    state->last_error = Status::Unavailable("circuit breaker open");
    RetryOrFail(state, attempt);
    return;
  }
  if (state->opts.respect_limits && options_.aimd.enabled) {
    const PeerState& dest = peers_[state->to];
    if (static_cast<double>(dest.inflight) + 1.0 > dest.aimd_limit) {
      // Over the adaptive limit: fail fast into the retry path, which backs
      // off and re-checks. Pushing the attempt through anyway is exactly
      // the unbounded concurrency that sustains a metastable collapse.
      ++stats_.limit_rejects;
      Obs().CounterFor("resilience.limit_rejects").Inc();
      state->last_error = Status::Unavailable("adaptive concurrency limit");
      RetryOrFail(state, attempt);
      return;
    }
  }

  ++stats_.attempts;
  c_attempts_.Inc();
  state->legs_inflight = 0;
  state->hedge_issued = false;
  state->hedge_timer_armed = false;
  IssueLeg(state, attempt, state->to, /*is_hedge=*/false, timeout);

  if (state->opts.hedge) {
    const sim::NodeId hedge_to =
        state->opts.hedge_to == CallOptions::kSameDestination
            ? state->to
            : state->opts.hedge_to;
    const sim::Time delay = HedgeDelay();
    if (delay < timeout) {
      state->hedge_timer_armed = true;
      state->hedge_timer = sim->ScheduleAfter(
          delay, [this, state, attempt, hedge_to, timeout] {
            if (state->completed || !state->hedge_timer_armed) return;
            state->hedge_timer_armed = false;
            sim::Time hedge_timeout = timeout;
            if (state->opts.deadline > 0) {
              const sim::Time rem =
                  state->opts.deadline - rpc_->simulator()->Now();
              if (rem <= 0) return;
              hedge_timeout = std::min(hedge_timeout, rem);
            }
            // A hedge is an extra request: it must respect the breaker at
            // its destination (an open breaker means "stop adding load
            // here" — hedges were sneaking past it) ...
            if (state->opts.respect_breaker && options_.breaker_enabled &&
                breaker_.StateOf(hedge_to, rpc_->simulator()->Now()) ==
                    CircuitBreaker::State::kOpen) {
              ++stats_.hedges_suppressed_breaker;
              Obs().CounterFor("resilience.hedges_suppressed_breaker").Inc();
              return;
            }
            // ... and it costs retry-budget tokens exactly like a retry:
            // under overload, hedges are retries that didn't even wait for
            // the failure.
            if (state->opts.respect_limits &&
                options_.retry_budget.enabled) {
              PeerState& dest = peers_[hedge_to];
              if (dest.budget_tokens < kRetryCost) {
                ++stats_.hedges_suppressed_budget;
                Obs().CounterFor("resilience.hedges_suppressed_budget")
                    .Inc();
                return;
              }
              dest.budget_tokens -= kRetryCost;
            }
            state->hedge_issued = true;
            ++stats_.hedges_issued;
            Obs().CounterFor("resilience.hedges_issued").Inc();
            IssueLeg(state, attempt, hedge_to, /*is_hedge=*/true,
                     hedge_timeout);
          });
    }
  }
}

void ResilientRpc::IssueLeg(const std::shared_ptr<CallState>& state,
                            int attempt, sim::NodeId dest, bool is_hedge,
                            sim::Time timeout) {
  ++state->legs_inflight;
  ++peers_[dest].inflight;
  const sim::Time started = rpc_->simulator()->Now();
  // Retries/hedges re-send a clone; the prototype stays with the call.
  rpc_->Call(self_, dest, state->method, state->request.Clone(), timeout,
             [this, state, attempt, dest, is_hedge,
              started](Result<sim::Payload> r) {
               OnLegDone(state, attempt, dest, is_hedge, started,
                         std::move(r));
             });
}

void ResilientRpc::OnLegDone(const std::shared_ptr<CallState>& state,
                             int attempt, sim::NodeId dest, bool is_hedge,
                             sim::Time leg_started, Result<sim::Payload> r) {
  --state->legs_inflight;
  PeerState& dest_state = peers_[dest];
  --dest_state.inflight;
  // A reply — even an application error — proves the peer is alive; only a
  // timeout counts against it. A kResourceExhausted shed in particular is a
  // LIVE peer telling us to back off: convicting it in the detector or
  // breaker would convert overload into apparent death and move the herd
  // onto the next victim.
  const bool alive = r.ok() || !r.status().IsTimedOut();
  RecordOutcome(dest, alive);

  // Overload-defense feedback. Successes refill the retry budget and grow
  // the AIMD limit additively; overload signals (attempt timeout or an
  // explicit shed) shrink the limit multiplicatively. Heartbeats never pass
  // through here, so probe traffic cannot refill budgets during overload.
  const bool overload_signal =
      !r.ok() &&
      (r.status().IsTimedOut() || r.status().IsResourceExhausted());
  if (r.ok()) {
    if (options_.retry_budget.enabled) {
      dest_state.budget_tokens =
          std::min(options_.retry_budget.max_tokens,
                   dest_state.budget_tokens + options_.retry_budget.token_ratio);
    }
    if (options_.aimd.enabled) {
      dest_state.aimd_limit =
          std::min(kAimdMaxLimit,
                   dest_state.aimd_limit +
                       1.0 / std::max(1.0, dest_state.aimd_limit));
    }
  } else if (overload_signal && options_.aimd.enabled) {
    dest_state.aimd_limit =
        std::max(kAimdMinLimit, dest_state.aimd_limit * kAimdBackoffRatio);
  }
  if (!r.ok() && r.status().IsResourceExhausted()) {
    ++stats_.resource_exhausted_replies;
    Obs().CounterFor("resilience.resource_exhausted_replies").Inc();
  }

  // Retryable = the attempt may be re-issued: timeouts (no verdict) and
  // explicit sheds (the server asked us to come back later). Every other
  // reply — success or application error — is definitive.
  const bool definitive = !overload_signal;

  // First definitive reply wins; the loser's reply lands here after
  // `completed` is set and is dropped (each leg has its own rpc call id, so
  // there is no cross-talk in sim::Rpc either).
  if (state->completed) return;

  if (definitive) {
    if (state->hedge_issued) {
      if (is_hedge) {
        ++stats_.hedges_won;
        Obs().CounterFor("resilience.hedges_won").Inc();
      } else {
        ++stats_.hedges_lost;
        Obs().CounterFor("resilience.hedges_lost").Inc();
      }
    }
    if (state->hedge_timer_armed) {
      state->hedge_timer_armed = false;
      rpc_->simulator()->Cancel(state->hedge_timer);
    }
    if (r.ok()) {
      attempt_latency_us_.Add(
          static_cast<double>(rpc_->simulator()->Now() - leg_started));
    }
    Complete(state, std::move(r));
    return;
  }

  state->last_error = r.status();
  if (state->legs_inflight > 0) return;  // other leg still racing
  if (state->hedge_timer_armed) {
    state->hedge_timer_armed = false;
    rpc_->simulator()->Cancel(state->hedge_timer);
  }
  RetryOrFail(state, attempt);
}

void ResilientRpc::RetryOrFail(const std::shared_ptr<CallState>& state,
                               int attempt) {
  if (attempt + 1 >= state->opts.max_attempts) {
    Complete(state, state->last_error.ok()
                        ? Status::Unavailable("attempts exhausted")
                        : state->last_error);
    return;
  }
  // Retry budget: an exhausted bucket fails fast with the last error. This
  // is the storm breaker — when a destination is rejecting or timing out
  // broadly, per-call retry counts stop mattering and the per-destination
  // budget caps total amplification.
  if (state->opts.respect_limits && options_.retry_budget.enabled) {
    PeerState& dest = peers_[state->to];
    if (dest.budget_tokens < kRetryCost) {
      ++stats_.budget_exhausted;
      Obs().CounterFor("resilience.budget_exhausted").Inc();
      Complete(state, state->last_error.ok()
                          ? Status::Unavailable("retry budget exhausted")
                          : state->last_error);
      return;
    }
    dest.budget_tokens -= kRetryCost;
  }
  sim::Time backoff = retry_.BackoffBefore(attempt + 1);
  // An overloaded server's retry-after hint dominates the local policy:
  // the server knows its own drain rate better than our exponential guess.
  backoff = std::max(backoff, RetryAfterHint(state->last_error));
  const sim::Time now = rpc_->simulator()->Now();
  // Deadline propagation: when the remaining budget cannot even cover the
  // backoff sleep, fail fast instead of sleeping past the deadline.
  if (state->opts.deadline > 0 && now + backoff >= state->opts.deadline) {
    FailDeadline(state);
    return;
  }
  ++stats_.retries;
  Obs().CounterFor("resilience.retries").Inc();
  rpc_->simulator()->ScheduleAfter(
      backoff, [this, state, attempt] { Attempt(state, attempt + 1); });
}

void ResilientRpc::Complete(const std::shared_ptr<CallState>& state,
                            Result<sim::Payload> r) {
  if (state->completed) return;
  state->completed = true;
  state->cb(std::move(r));
}

void ResilientRpc::FailDeadline(const std::shared_ptr<CallState>& state) {
  ++stats_.deadline_exceeded;
  Obs().CounterFor("resilience.deadline_exceeded").Inc();
  Complete(state, Status::DeadlineExceeded("call budget exhausted"));
}

sim::Time ResilientRpc::HedgeDelay() const {
  const HedgeOptions& h = options_.hedge;
  if (attempt_latency_us_.count() < h.min_samples) {
    return std::max(kMinHedgeDelay, h.default_delay);
  }
  const auto p =
      static_cast<sim::Time>(attempt_latency_us_.Percentile(kHedgePercentile));
  return std::max(kMinHedgeDelay, p);
}

void ResilientRpc::RecordOutcome(sim::NodeId peer, bool success,
                                 bool heartbeat) {
  const sim::Time now = rpc_->simulator()->Now();
  if (success) {
    // Only heartbeat replies enter the phi interval window: request
    // interarrivals follow the workload, not a clock, and feeding them in
    // would convict every peer the client merely stopped talking to.
    if (heartbeat) {
      detector_.OnArrival(peer, now);
    } else {
      detector_.OnAlive(peer);
    }
  } else {
    detector_.OnFailure(peer, now);
  }
  if (options_.breaker_enabled) {
    if (success) {
      breaker_.OnSuccess(peer);
    } else {
      breaker_.OnFailure(peer, now);
    }
  }
  NoteSuspicionEdge(peer);
}

bool ResilientRpc::SuspectedNow(sim::NodeId peer, sim::Time now) const {
  // The silence-based phi verdict assumes a regular arrival stream; with no
  // heartbeats running, only repeated explicit failures convict.
  if (heartbeats_started_) return detector_.IsSuspected(peer, now);
  return detector_.ConsecutiveFailuresExceeded(peer);
}

void ResilientRpc::NoteSuspicionEdge(sim::NodeId peer) {
  const sim::Time now = rpc_->simulator()->Now();
  const bool suspected = SuspectedNow(peer, now);
  bool& prev = peers_[peer].suspected;
  if (suspected && !prev) {
    ++stats_.suspect_transitions;
    Obs().CounterFor("resilience.detector.suspects").Inc();
    // Honesty accounting: if the omniscient oracle says the peer was
    // reachable at the moment suspicion was raised, this was a false alarm.
    // (Gray failures are deliberately NOT false positives: the oracle still
    // reports a flaky link as reachable, but suspecting it is the point.)
    if (rpc_->network()->CanCommunicate(self_, peer)) {
      ++stats_.false_positives;
      Obs().CounterFor("resilience.detector.false_positives").Inc();
    }
  }
  prev = suspected;
}

bool ResilientRpc::PeerUsable(sim::NodeId peer) const {
  const sim::Time now = rpc_->simulator()->Now();
  if (SuspectedNow(peer, now)) return false;
  if (options_.breaker_enabled &&
      breaker_.StateOf(peer, now) == CircuitBreaker::State::kOpen) {
    return false;
  }
  return true;
}

void ResilientRpc::StartHeartbeats(std::vector<sim::NodeId> peers) {
  if (heartbeats_started_) return;
  heartbeats_started_ = true;
  sim::Simulator* sim = rpc_->simulator();
  for (sim::NodeId peer : peers) {
    if (peer == self_) continue;
    // Phase-stagger first probes so a cluster of detectors doesn't fire in
    // lockstep.
    const sim::Time phase = static_cast<sim::Time>(rng_.NextBounded(
                                static_cast<uint64_t>(
                                    options_.heartbeat_interval))) +
                            1;
    sim->ScheduleAfter(phase, [this, peer] { HeartbeatTick(peer); });
  }
}

void ResilientRpc::HeartbeatTick(sim::NodeId peer) {
  sim::Simulator* sim = rpc_->simulator();
  sim->ScheduleAfter(options_.heartbeat_interval,
                     [this, peer] { HeartbeatTick(peer); });
  // A crashed process runs no detector; probing resumes after restart.
  if (!rpc_->network()->IsNodeUp(self_)) return;
  ++stats_.heartbeats_sent;
  c_heartbeats_sent_.Inc();
  // Probes bypass the breaker on purpose: a healed peer's successful probe
  // is what closes its breaker again.
  rpc_->Call(self_, peer, ping_method_, PingReq{},
             options_.heartbeat_timeout, [this, peer](Result<sim::Payload> r) {
               RecordOutcome(peer, r.ok(), /*heartbeat=*/true);
             });
}

}  // namespace evc::resilience

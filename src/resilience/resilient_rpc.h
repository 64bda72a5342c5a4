// Client-side resilience facade over sim::Rpc.
//
// One ResilientRpc instance belongs to one node (`self`) and composes the
// three client-side mechanisms real systems use against partial failure:
//
//   * retries  — capped exponential backoff with seeded jitter (retry.h),
//     with per-call deadline propagation: a retry whose backoff would sleep
//     past the caller's absolute deadline fails fast with DeadlineExceeded
//     instead of burning budget it no longer has;
//   * hedging  — after a latency-percentile delay, a second copy of the
//     request goes to an alternate destination; the first definitive reply
//     wins, the loser's reply is ignored (distinct rpc call ids make that
//     duplicate-safe), and the pending hedge timer is cancelled on a win
//     ("The Tail at Scale", CACM 2013);
//   * failure detection — heartbeat probes feed a per-destination
//     phi-accrual detector (detector.h); every attempt outcome feeds its
//     consecutive-failure fallback and a circuit breaker (breaker.h);
//     PeerUsable() is the client-side, implementable replacement for the
//     Network::CanCommunicate oracle.
//
// Detector honesty is measured, not assumed: on every not-suspected ->
// suspected edge the layer consults the simulator's ground truth and counts
// a false positive (resilience.detector.false_positives) when the oracle
// says the peer was actually reachable.
//
// Determinism: all jitter and phase staggering comes from an Rng seeded at
// construction; no wall-clock anywhere. Two same-seed runs issue identical
// schedules of attempts, hedges, and probes.

#ifndef EVC_RESILIENCE_RESILIENT_RPC_H_
#define EVC_RESILIENCE_RESILIENT_RPC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "resilience/breaker.h"
#include "resilience/detector.h"
#include "resilience/retry.h"
#include "sim/node_table.h"
#include "sim/rpc.h"

namespace evc::resilience {

/// Hedged-request policy: when to issue the second attempt. The hedge fires
/// once the p95 of this node's successful attempt latencies has elapsed
/// without a reply.
struct HedgeOptions {
  /// Samples required before the percentile is trusted.
  size_t min_samples = 16;
  /// Hedge delay used until enough samples exist.
  sim::Time default_delay = 50 * sim::kMillisecond;
};

/// Per-destination retry budget (gRPC-style token bucket). Every successful
/// first-class reply refills `token_ratio` tokens; every retry AND every
/// hedge debits one token. An exhausted budget fails the call fast with
/// the last error instead of amplifying: under overload, N clients retrying
/// M times turn offered load L into L*(1+M) — the budget caps sustained
/// amplification at 1 + token_ratio.
struct RetryBudgetOptions {
  bool enabled = false;
  double initial_tokens = 10.0;
  double max_tokens = 10.0;
  /// Tokens credited per successful reply: 0.1 sustains one retry per ten
  /// successes.
  double token_ratio = 0.1;
};

/// AIMD adaptive concurrency limit per destination: successes grow the
/// limit additively (+1 per `limit` successes, up to 256), overload signals
/// (attempt timeout or kResourceExhausted rejection) shrink it by
/// kAimdBackoffRatio (down to 1).
/// Calls over the limit fail fast (then back off through the normal retry
/// path), so a client's offered concurrency tracks what the destination
/// can actually absorb.
struct AimdOptions {
  bool enabled = false;
  double initial_limit = 16.0;
};

/// AIMD multiplicative decrease factor on an overload signal.
constexpr double kAimdBackoffRatio = 0.7;

struct ResilienceOptions {
  RetryOptions retry;
  DetectorOptions detector;
  BreakerOptions breaker;
  HedgeOptions hedge;
  RetryBudgetOptions retry_budget;
  AimdOptions aimd;
  bool breaker_enabled = true;
  /// Heartbeat probing (StartHeartbeats): period and per-probe timeout.
  sim::Time heartbeat_interval = 100 * sim::kMillisecond;
  sim::Time heartbeat_timeout = 150 * sim::kMillisecond;
};

/// Per-call knobs. The per-attempt timeout is the sim::Rpc timeout; the
/// deadline is an absolute sim-time budget across ALL attempts and backoffs.
struct CallOptions {
  sim::Time attempt_timeout = 250 * sim::kMillisecond;
  /// Absolute deadline (sim time); 0 = no deadline.
  sim::Time deadline = 0;
  /// Total attempts (hedges don't count). 1 = no retries.
  int max_attempts = 1;
  /// Issue a hedged second copy of slow attempts.
  bool hedge = false;
  /// Destination of the hedged copy; kSameDestination re-sends to `to`.
  sim::NodeId hedge_to = kSameDestination;
  /// Reject attempts the breaker holds open (failing fast with Unavailable).
  bool respect_breaker = true;
  /// Subject this call to the retry budget and AIMD concurrency limit.
  /// Quorum fan-out legs set false: the coordinator's quorum math already
  /// bounds them, and starving legs would turn overload into quorum loss.
  bool respect_limits = true;

  static constexpr sim::NodeId kSameDestination = UINT32_MAX;
};

struct ResilienceStats {
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;   ///< hedge leg answered first
  uint64_t hedges_lost = 0;  ///< primary answered first, hedge wasted
  uint64_t breaker_rejects = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t suspect_transitions = 0;
  uint64_t false_positives = 0;  ///< suspected while oracle said reachable
  uint64_t heartbeats_sent = 0;
  uint64_t budget_exhausted = 0;  ///< retries failed fast: no budget tokens
  uint64_t limit_rejects = 0;     ///< attempts over the AIMD limit
  uint64_t hedges_suppressed_breaker = 0;  ///< hedge skipped: breaker open
  uint64_t hedges_suppressed_budget = 0;   ///< hedge skipped: no tokens
  uint64_t resource_exhausted_replies = 0; ///< kResourceExhausted rejections
};

class ResilientRpc {
 public:
  /// `self` is the node this instance issues calls from. `seed` drives all
  /// jitter; derive it deterministically (e.g. from the node id).
  ResilientRpc(sim::Rpc* rpc, sim::NodeId self, ResilienceOptions options,
               uint64_t seed);

  ResilientRpc(const ResilientRpc&) = delete;
  ResilientRpc& operator=(const ResilientRpc&) = delete;

  /// Issues `method` to `to` with retries/hedging per `options`. `cb` fires
  /// exactly once: with the first definitive reply, DeadlineExceeded when
  /// the budget ran out, Unavailable when the breaker rejected the final
  /// attempt, or the last attempt's error.
  void Call(sim::NodeId to, sim::MethodId method, sim::Payload request,
            const CallOptions& options, sim::RpcCallback cb);

  /// Convenience: boxes `request` into the simulator's slab and calls.
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, sim::Payload>>>
  void Call(sim::NodeId to, sim::MethodId method, T&& request,
            const CallOptions& options, sim::RpcCallback cb) {
    Call(to, method,
         sim::Payload(&rpc_->simulator()->slab(), std::forward<T>(request)),
         options, std::move(cb));
  }

  /// Convenience (tests, cold paths): interns `method` on every call.
  template <typename T>
  void Call(sim::NodeId to, std::string_view method, T&& request,
            const CallOptions& options, sim::RpcCallback cb) {
    Call(to, rpc_->InternMethod(method), std::forward<T>(request), options,
         std::move(cb));
  }

  /// Starts periodic ping probes to `peers`, phase-staggered. Probes feed
  /// the detector/breaker exactly like real attempt outcomes. Peers answer
  /// via their own ResilientRpc (the ping handler registers in the ctor).
  void StartHeartbeats(std::vector<sim::NodeId> peers);

  /// Client-side liveness verdict for `peer`: not suspected by the detector
  /// and not held open by the breaker. Non-mutating. Phi (silence-based)
  /// suspicion applies only while heartbeats run — without a heartbeat
  /// stream, silence is workload, not death, and only the
  /// consecutive-failure fallback and the breaker convict.
  bool PeerUsable(sim::NodeId peer) const;

  /// Feeds an externally observed outcome (e.g. a fan-out RPC issued
  /// through the raw sim::Rpc) into the detector/breaker. Only heartbeat
  /// outcomes (`heartbeat = true`) enter the phi interval window; request
  /// outcomes touch the consecutive-failure fallback and the breaker.
  void RecordOutcome(sim::NodeId peer, bool success, bool heartbeat = false);

  PhiAccrualDetector& detector() { return detector_; }
  const PhiAccrualDetector& detector() const { return detector_; }
  CircuitBreaker& breaker() { return breaker_; }
  const ResilienceStats& stats() const { return stats_; }
  sim::NodeId self() const { return self_; }
  sim::Rpc* rpc() { return rpc_; }

  /// Diagnostic peeks at the per-destination overload defenses.
  double budget_tokens(sim::NodeId dest) const;
  double concurrency_limit(sim::NodeId dest) const;

 private:
  struct CallState;

  /// Per-peer state: the overload defenses of calls to the peer and its
  /// last published suspicion edge. A peer never written reads as the
  /// initial budget and limit, nothing in flight, not suspected.
  struct PeerState {
    double budget_tokens = 0.0;
    double aimd_limit = 0.0;
    int inflight = 0;        ///< legs currently in flight to this peer
    bool suspected = false;  ///< last published suspicion edge
  };

  void Attempt(const std::shared_ptr<CallState>& state, int attempt);
  void IssueLeg(const std::shared_ptr<CallState>& state, int attempt,
                sim::NodeId dest, bool is_hedge, sim::Time timeout);
  void OnLegDone(const std::shared_ptr<CallState>& state, int attempt,
                 sim::NodeId dest, bool is_hedge, sim::Time leg_started,
                 Result<sim::Payload> r);
  void RetryOrFail(const std::shared_ptr<CallState>& state, int attempt);
  void Complete(const std::shared_ptr<CallState>& state, Result<sim::Payload> r);
  void FailDeadline(const std::shared_ptr<CallState>& state);
  sim::Time HedgeDelay() const;
  bool SuspectedNow(sim::NodeId peer, sim::Time now) const;
  void NoteSuspicionEdge(sim::NodeId peer);
  void HeartbeatTick(sim::NodeId peer);
  obs::MetricsRegistry& Obs() const;

  sim::Rpc* rpc_;
  sim::NodeId self_;
  sim::MethodId ping_method_ = 0;
  ResilienceOptions options_;
  RetryPolicy retry_;
  PhiAccrualDetector detector_;
  CircuitBreaker breaker_;
  Rng rng_;
  ResilienceStats stats_;
  Histogram attempt_latency_us_;  ///< successful attempts, feeds HedgeDelay
  sim::NodeTable<PeerState> peers_;
  bool heartbeats_started_ = false;
  // Counters bumped on every attempt and every heartbeat.
  obs::LazyCounter c_attempts_;
  obs::LazyCounter c_heartbeats_sent_;
};

}  // namespace evc::resilience

#endif  // EVC_RESILIENCE_RESILIENT_RPC_H_

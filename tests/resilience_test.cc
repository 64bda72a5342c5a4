// Client resilience layer: retry/backoff, deadline propagation, hedged
// requests, phi-accrual failure detection, and the circuit breaker.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "resilience/admission.h"
#include "resilience/resilient_rpc.h"
#include "sim/latency.h"

namespace evc::resilience {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, ExponentialGrowthCappedWithoutJitter) {
  RetryOptions opts;
  opts.initial_backoff = 25 * kMillisecond;
  opts.max_backoff = 100 * kMillisecond;
  opts.multiplier = 2.0;
  opts.jitter = 0.0;
  RetryPolicy policy(opts, 1);
  EXPECT_EQ(policy.BackoffBefore(1), 25 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(2), 50 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(3), 100 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(4), 100 * kMillisecond);  // capped
  EXPECT_EQ(policy.BackoffBefore(10), 100 * kMillisecond);
}

TEST(RetryPolicy, JitterStaysInBandAndIsSeedDeterministic) {
  RetryOptions opts;
  opts.initial_backoff = 100 * kMillisecond;
  opts.max_backoff = kSecond;
  opts.jitter = 0.2;
  opts.jitter_mode = JitterMode::kEqual;  // the legacy +/-20% band
  RetryPolicy a(opts, 99);
  RetryPolicy b(opts, 99);
  RetryPolicy c(opts, 100);
  bool any_diff_from_c = false;
  for (int retry = 1; retry <= 8; ++retry) {
    const sim::Time backoff = a.BackoffBefore(retry);
    EXPECT_EQ(backoff, b.BackoffBefore(retry));  // same seed, same draws
    const double nominal =
        std::min(static_cast<double>(opts.max_backoff),
                 static_cast<double>(opts.initial_backoff) *
                     std::pow(opts.multiplier, retry - 1));
    EXPECT_GE(backoff, static_cast<sim::Time>(nominal * 0.8) - 1);
    EXPECT_LE(backoff, static_cast<sim::Time>(nominal * 1.2) + 1);
    if (backoff != c.BackoffBefore(retry)) any_diff_from_c = true;
  }
  EXPECT_TRUE(any_diff_from_c);  // different seed, different jitter
}

// Satellite S1: the default jitter mode is FULL — each sleep is uniform in
// (0, capped_backoff], not a narrow band around the nominal value.
TEST(RetryPolicy, FullJitterDrawsSpanTheWholeWindow) {
  RetryOptions opts;
  opts.initial_backoff = 100 * kMillisecond;
  opts.max_backoff = kSecond;
  ASSERT_EQ(opts.jitter_mode, JitterMode::kFull);  // the default
  RetryPolicy policy(opts, 7);
  sim::Time lo = opts.max_backoff;
  sim::Time hi = 0;
  for (int i = 0; i < 200; ++i) {
    const sim::Time b = policy.BackoffBefore(1);  // nominal 100ms
    EXPECT_GE(b, 1);
    EXPECT_LE(b, 100 * kMillisecond);
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  // 200 uniform draws cover the window: something landed in the bottom and
  // top quarters, which the +/-20% band can never reach.
  EXPECT_LT(lo, 25 * kMillisecond);
  EXPECT_GT(hi, 75 * kMillisecond);
}

// Satellite S1 regression: N clients whose first attempts failed at the same
// instant. Equal jitter re-arrives them inside a 40%-wide burst window — the
// synchronized wave that feeds a metastable collapse. Full jitter spreads
// the same wave over the whole backoff window.
TEST(RetryPolicy, FullJitterBreaksUpSynchronizedRetryWave) {
  constexpr int kClients = 64;
  const auto spread_of = [](JitterMode mode) {
    RetryOptions opts;
    opts.initial_backoff = 100 * kMillisecond;
    opts.max_backoff = kSecond;
    opts.jitter = 0.2;
    opts.jitter_mode = mode;
    sim::Time lo = opts.max_backoff;
    sim::Time hi = 0;
    for (int c = 0; c < kClients; ++c) {
      RetryPolicy policy(opts, 1000 + static_cast<uint64_t>(c));
      const sim::Time b = policy.BackoffBefore(1);
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    return std::make_pair(lo, hi);
  };
  const auto [equal_lo, equal_hi] = spread_of(JitterMode::kEqual);
  const auto [full_lo, full_hi] = spread_of(JitterMode::kFull);
  // The legacy band: every re-arrival inside [80ms, 120ms].
  EXPECT_GE(equal_lo, 80 * kMillisecond - 1);
  EXPECT_LE(equal_hi, 120 * kMillisecond + 1);
  // Full jitter: the same cohort lands across (0, 100ms], at least twice as
  // wide as the band and reaching far below it.
  EXPECT_LT(full_lo, 40 * kMillisecond);
  EXPECT_GT(full_hi - full_lo, 2 * (equal_hi - equal_lo));
}

// ---------------------------------------------------------------------------
// PhiAccrualDetector
// ---------------------------------------------------------------------------

TEST(PhiAccrualDetector, RegularHeartbeatsKeepPhiLowSilenceRaisesIt) {
  PhiAccrualDetector det;
  sim::Time now = 0;
  for (int i = 0; i < 30; ++i) {
    now += 100 * kMillisecond;
    det.OnArrival(7, now);
  }
  // Right after an arrival, phi is ~0 and the peer is trusted.
  EXPECT_LT(det.Phi(7, now + 50 * kMillisecond), 1.0);
  EXPECT_FALSE(det.IsSuspected(7, now + 50 * kMillisecond));
  // After 20x the usual interval of silence, suspicion is overwhelming.
  EXPECT_GE(det.Phi(7, now + 2 * kSecond), kSuspectThreshold);
  EXPECT_TRUE(det.IsSuspected(7, now + 2 * kSecond));
  // A fresh arrival clears the suspicion.
  det.OnArrival(7, now + 2 * kSecond);
  EXPECT_FALSE(det.IsSuspected(7, now + 2 * kSecond + 50 * kMillisecond));
}

TEST(PhiAccrualDetector, UnknownPeerIsNotSuspected) {
  PhiAccrualDetector det;
  EXPECT_EQ(det.Phi(3, kSecond), 0.0);
  EXPECT_FALSE(det.IsSuspected(3, kSecond));
}

TEST(PhiAccrualDetector, ConsecutiveFailureFallbackFiresWithoutHistory) {
  DetectorOptions opts;
  opts.consecutive_failures_to_suspect = 3;
  PhiAccrualDetector det(opts);
  det.OnFailure(5, kSecond);
  det.OnFailure(5, 2 * kSecond);
  EXPECT_FALSE(det.IsSuspected(5, 2 * kSecond));
  det.OnFailure(5, 3 * kSecond);
  EXPECT_TRUE(det.IsSuspected(5, 3 * kSecond));
  // An arrival resets the failure streak.
  det.OnArrival(5, 4 * kSecond);
  EXPECT_FALSE(det.IsSuspected(5, 4 * kSecond));
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TripsOpensProbesAndRecloses) {
  BreakerOptions opts;
  opts.failure_threshold = 2;
  opts.open_duration = 100 * kMillisecond;
  CircuitBreaker breaker(opts);

  EXPECT_TRUE(breaker.AllowRequest(1, 0));
  breaker.OnFailure(1, 10 * kMillisecond);
  EXPECT_TRUE(breaker.AllowRequest(1, 20 * kMillisecond));
  breaker.OnFailure(1, 30 * kMillisecond);  // second failure: trip
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.StateOf(1, 40 * kMillisecond), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(1, 40 * kMillisecond));
  EXPECT_EQ(breaker.rejects(), 1u);

  // Cool-down elapsed: exactly one half-open probe slot.
  const sim::Time later = 30 * kMillisecond + opts.open_duration;
  EXPECT_EQ(breaker.StateOf(1, later), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(1, later));
  EXPECT_FALSE(breaker.AllowRequest(1, later));  // probe slot taken

  breaker.OnSuccess(1);
  EXPECT_EQ(breaker.StateOf(1, later + 1), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(1, later + 1));
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCoolDown) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_duration = 100 * kMillisecond;
  CircuitBreaker breaker(opts);
  breaker.OnFailure(9, 0);  // trip
  EXPECT_TRUE(breaker.AllowRequest(9, 100 * kMillisecond));  // probe
  breaker.OnFailure(9, 110 * kMillisecond);                  // probe failed
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.AllowRequest(9, 150 * kMillisecond));
  EXPECT_TRUE(breaker.AllowRequest(9, 210 * kMillisecond));
}

// ---------------------------------------------------------------------------
// ResilientRpc
// ---------------------------------------------------------------------------

struct EchoReq {
  std::string text;
};

class ResilientRpcTest : public ::testing::Test {
 protected:
  ResilientRpcTest()
      : sim_(11),
        net_(&sim_,
             std::make_unique<sim::ConstantLatency>(5 * kMillisecond)),
        rpc_(&net_) {
    client_ = net_.AddNode();
    server_ = net_.AddNode();
    server2_ = net_.AddNode();
    RegisterEcho(server_, "s1:");
    RegisterEcho(server2_, "s2:");
  }

  void RegisterEcho(sim::NodeId node, const std::string& tag) {
    rpc_.RegisterHandler(
        node, "echo",
        [tag](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
          auto r = std::move(req).Take<EchoReq>();
          respond(tag + r.text);
        });
  }

  std::unique_ptr<ResilientRpc> MakeClient(ResilienceOptions options = {}) {
    options.retry.jitter = 0.0;  // exact timing assertions below
    return std::make_unique<ResilientRpc>(&rpc_, client_, options, 1234);
  }

  sim::Simulator sim_;
  sim::Network net_;
  sim::Rpc rpc_;
  sim::NodeId client_ = 0;
  sim::NodeId server_ = 0;
  sim::NodeId server2_ = 0;
};

TEST_F(ResilientRpcTest, RetriesThroughTransientBlackoutAndSucceeds) {
  ResilienceOptions options;
  options.retry.initial_backoff = 50 * kMillisecond;
  auto client = MakeClient(options);

  // The link eats everything until it heals at 120ms.
  net_.SetLinkDropRate(client_, server_, 1.0);
  sim_.ScheduleAfter(120 * kMillisecond,
                     [&] { net_.SetLinkDropRate(client_, server_, 0.0); });

  CallOptions opts;
  opts.attempt_timeout = 100 * kMillisecond;
  opts.max_attempts = 3;
  std::string reply;
  int fires = 0;
  client->Call(server_, "echo", EchoReq{"hi"}, opts,
               [&](Result<sim::Payload> r) {
                 ++fires;
                 ASSERT_TRUE(r.ok());
                 reply = std::move(*r).Take<std::string>();
               });
  sim_.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(reply, "s1:hi");
  EXPECT_EQ(client->stats().attempts, 2u);
  EXPECT_EQ(client->stats().retries, 1u);
}

// Satellite: deadline propagation. When the remaining budget cannot cover
// the next backoff, the call fails fast with DeadlineExceeded instead of
// sleeping past its deadline.
TEST_F(ResilientRpcTest, DeadlineFailsFastInsteadOfSleepingPastBudget) {
  ResilienceOptions options;
  options.retry.initial_backoff = 100 * kMillisecond;
  auto client = MakeClient(options);

  net_.SetLinkDropRate(client_, server_, 1.0);  // never heals

  CallOptions opts;
  opts.attempt_timeout = 100 * kMillisecond;
  opts.deadline = sim_.Now() + 150 * kMillisecond;
  opts.max_attempts = 3;
  Status status = Status::OK();
  sim::Time completed_at = -1;
  client->Call(server_, "echo", EchoReq{"hi"}, opts,
               [&](Result<sim::Payload> r) {
                 status = r.status();
                 completed_at = sim_.Now();
               });
  sim_.Run();
  // First attempt times out at 100ms; 50ms of budget remain but the next
  // backoff is 100ms, so the call fails immediately — before the deadline.
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(completed_at, 100 * kMillisecond);
  EXPECT_EQ(client->stats().retries, 0u);
  EXPECT_EQ(client->stats().deadline_exceeded, 1u);
}

TEST_F(ResilientRpcTest, HedgeWinsAgainstSlowNodeAndLoserIsIgnored) {
  auto client = MakeClient();  // hedge default_delay = 50ms

  // Primary target processes everything 300ms late (gray failure: the
  // oracle still says it is reachable).
  net_.SetNodeProcessingDelay(server_, 300 * kMillisecond);

  CallOptions opts;
  opts.attempt_timeout = kSecond;
  opts.hedge = true;
  opts.hedge_to = server2_;
  std::string reply;
  int fires = 0;
  sim::Time completed_at = -1;
  client->Call(server_, "echo", EchoReq{"x"}, opts, [&](Result<sim::Payload> r) {
    ++fires;
    ASSERT_TRUE(r.ok());
    reply = std::move(*r).Take<std::string>();
    completed_at = sim_.Now();
  });
  sim_.Run();  // runs until the slow primary's reply has also landed
  EXPECT_EQ(fires, 1);  // duplicate reply dropped, callback fired once
  EXPECT_EQ(reply, "s2:x");
  EXPECT_EQ(client->stats().hedges_issued, 1u);
  EXPECT_EQ(client->stats().hedges_won, 1u);
  EXPECT_EQ(client->stats().hedges_lost, 0u);
  // Completed at hedge delay + round trip, far ahead of the slow primary.
  EXPECT_EQ(completed_at, 60 * kMillisecond);
}

TEST_F(ResilientRpcTest, FastPrimaryCancelsArmedHedge) {
  auto client = MakeClient();
  CallOptions opts;
  opts.attempt_timeout = kSecond;
  opts.hedge = true;
  opts.hedge_to = server2_;
  std::string reply;
  client->Call(server_, "echo", EchoReq{"y"}, opts, [&](Result<sim::Payload> r) {
    ASSERT_TRUE(r.ok());
    reply = std::move(*r).Take<std::string>();
  });
  sim_.Run();
  EXPECT_EQ(reply, "s1:y");  // primary answered at 10ms, before the 50ms hedge
  EXPECT_EQ(client->stats().hedges_issued, 0u);
  EXPECT_EQ(client->stats().hedges_won, 0u);
}

// Satellite S2: a hedge is an extra request, so an open breaker at the hedge
// destination suppresses it — hedges were sneaking past the breaker and
// adding load to a destination the client had already convicted.
TEST_F(ResilientRpcTest, HedgeSuppressedWhenBreakerOpenAtHedgeTarget) {
  ResilienceOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.open_duration = 10 * kSecond;
  auto client = MakeClient(options);

  client->breaker().OnFailure(server2_, 0);  // trip the hedge target's breaker
  net_.SetNodeProcessingDelay(server_, 300 * kMillisecond);  // slow primary

  CallOptions opts;
  opts.attempt_timeout = kSecond;
  opts.hedge = true;
  opts.hedge_to = server2_;
  std::string reply;
  client->Call(server_, "echo", EchoReq{"x"}, opts,
               [&](Result<sim::Payload> r) {
                 ASSERT_TRUE(r.ok());
                 reply = std::move(*r).Take<std::string>();
               });
  sim_.Run();
  // The hedge timer fired, saw the open breaker, and issued nothing; the
  // slow primary eventually answered.
  EXPECT_EQ(reply, "s1:x");
  EXPECT_EQ(client->stats().hedges_issued, 0u);
  EXPECT_EQ(client->stats().hedges_suppressed_breaker, 1u);
}

// Satellite S2: hedges debit the retry budget exactly like retries — under
// overload a hedge is a retry that didn't even wait for the failure. An
// exhausted budget suppresses the hedge instead of issuing it.
TEST_F(ResilientRpcTest, HedgeDebitsRetryBudgetAndExhaustionSuppresses) {
  ResilienceOptions options;
  options.retry_budget.enabled = true;
  options.retry_budget.initial_tokens = 1.0;
  options.retry_budget.max_tokens = 1.0;
  options.retry_budget.token_ratio = 0.0;  // no refill: isolate the debit
  auto client = MakeClient(options);

  net_.SetNodeProcessingDelay(server_, 300 * kMillisecond);  // hedges fire

  CallOptions opts;
  opts.attempt_timeout = kSecond;
  opts.hedge = true;
  opts.hedge_to = server2_;
  std::string first_reply;
  client->Call(server_, "echo", EchoReq{"a"}, opts,
               [&](Result<sim::Payload> r) {
                 ASSERT_TRUE(r.ok());
                 first_reply = std::move(*r).Take<std::string>();
               });
  sim_.Run();
  // The one token paid for the first hedge, which won.
  EXPECT_EQ(first_reply, "s2:a");
  EXPECT_EQ(client->stats().hedges_issued, 1u);
  EXPECT_EQ(client->budget_tokens(server2_), 0.0);

  std::string second_reply;
  client->Call(server_, "echo", EchoReq{"b"}, opts,
               [&](Result<sim::Payload> r) {
                 ASSERT_TRUE(r.ok());
                 second_reply = std::move(*r).Take<std::string>();
               });
  sim_.Run();
  // No tokens left: the hedge is suppressed and the slow primary answers.
  EXPECT_EQ(second_reply, "s1:b");
  EXPECT_EQ(client->stats().hedges_issued, 1u);
  EXPECT_EQ(client->stats().hedges_suppressed_budget, 1u);
}

// Tentpole: the per-destination retry budget fails calls fast once the
// token bucket drains, capping retry amplification no matter how large the
// per-call max_attempts is.
TEST_F(ResilientRpcTest, RetryBudgetExhaustionFailsFast) {
  ResilienceOptions options;
  options.retry.initial_backoff = 10 * kMillisecond;
  options.retry_budget.enabled = true;
  options.retry_budget.initial_tokens = 1.0;
  options.retry_budget.max_tokens = 1.0;
  options.retry_budget.token_ratio = 0.0;
  auto client = MakeClient(options);

  net_.SetLinkDropRate(client_, server_, 1.0);  // never heals

  CallOptions opts;
  opts.attempt_timeout = 20 * kMillisecond;
  opts.max_attempts = 5;
  Status status = Status::OK();
  client->Call(server_, "echo", EchoReq{"z"}, opts,
               [&](Result<sim::Payload> r) { status = r.status(); });
  sim_.Run();
  // Five attempts were allowed per call, but the budget paid for exactly one
  // retry: attempt 1 times out, the single token buys attempt 2, and the
  // third attempt is refused with the last real error.
  EXPECT_TRUE(status.IsTimedOut()) << status.ToString();
  EXPECT_EQ(client->stats().attempts, 2u);
  EXPECT_EQ(client->stats().retries, 1u);
  EXPECT_EQ(client->stats().budget_exhausted, 1u);
}

// Tentpole: AIMD adaptive concurrency — calls over the per-destination
// limit fail fast; successes grow the limit additively and overload signals
// shrink it multiplicatively.
TEST_F(ResilientRpcTest, AimdLimitRejectsOverConcurrencyAndAdapts) {
  ResilienceOptions options;
  options.aimd.enabled = true;
  options.aimd.initial_limit = 1.0;
  auto client = MakeClient(options);

  CallOptions opts;
  opts.attempt_timeout = kSecond;
  std::string reply;
  Status second = Status::OK();
  client->Call(server_, "echo", EchoReq{"p"}, opts,
               [&](Result<sim::Payload> r) {
                 ASSERT_TRUE(r.ok());
                 reply = std::move(*r).Take<std::string>();
               });
  // Issued while the first call is still in flight: over the limit of 1,
  // rejected instantly (max_attempts = 1, so no retry path).
  client->Call(server_, "echo", EchoReq{"q"}, opts,
               [&](Result<sim::Payload> r) { second = r.status(); });
  sim_.Run();
  EXPECT_EQ(reply, "s1:p");
  EXPECT_TRUE(second.IsUnavailable()) << second.ToString();
  EXPECT_EQ(client->stats().limit_rejects, 1u);
  // The success grew the limit additively: 1 + 1/1 = 2.
  EXPECT_DOUBLE_EQ(client->concurrency_limit(server_), 2.0);

  // An attempt timeout is an overload signal: multiplicative decrease.
  net_.SetLinkDropRate(client_, server_, 1.0);
  CallOptions short_opts;
  short_opts.attempt_timeout = 20 * kMillisecond;
  client->Call(server_, "echo", EchoReq{"r"}, short_opts,
               [&](Result<sim::Payload>) {});
  sim_.Run();
  EXPECT_DOUBLE_EQ(client->concurrency_limit(server_),
                   2.0 * kAimdBackoffRatio);
}

// Tentpole: a kResourceExhausted shed is retryable (the server explicitly
// asked the client to come back later) and its retry-after hint dominates
// the local backoff policy. The shed must NOT convict the peer: it is a
// live server managing load, not a dead one.
TEST_F(ResilientRpcTest, ResourceExhaustedRetriesAfterServerHint) {
  ResilienceOptions options;
  options.retry.initial_backoff = 1 * kMillisecond;
  auto client = MakeClient(options);

  int serve_count = 0;
  rpc_.RegisterHandler(
      server_, "shed.then.ok",
      [&](sim::NodeId, sim::Payload, sim::RpcResponder respond) {
        if (++serve_count == 1) {
          respond(ResourceExhaustedWithRetryAfter(200 * kMillisecond));
        } else {
          respond(std::string("served"));
        }
      });

  CallOptions opts;
  opts.attempt_timeout = kSecond;
  opts.max_attempts = 2;
  std::string reply;
  sim::Time completed_at = -1;
  client->Call(server_, "shed.then.ok", EchoReq{"w"}, opts,
               [&](Result<sim::Payload> r) {
                 ASSERT_TRUE(r.ok()) << r.status().ToString();
                 reply = std::move(*r).Take<std::string>();
                 completed_at = sim_.Now();
               });
  sim_.Run();
  EXPECT_EQ(reply, "served");
  EXPECT_EQ(client->stats().resource_exhausted_replies, 1u);
  EXPECT_EQ(client->stats().retries, 1u);
  // Shed reply lands at 10ms (5ms/hop); the retry waits the server's 200ms
  // hint (not the 1ms local backoff) and completes one round trip later.
  EXPECT_EQ(completed_at, 220 * kMillisecond);
  // The shed fed the breaker/detector as a SUCCESS: the peer stays usable.
  EXPECT_TRUE(client->PeerUsable(server_));
}

TEST_F(ResilientRpcTest, BreakerRejectsAfterRepeatedTimeouts) {
  ResilienceOptions options;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration = 10 * kSecond;
  options.detector.consecutive_failures_to_suspect = 100;  // isolate breaker
  auto client = MakeClient(options);

  net_.SetLinkDropRate(client_, server_, 1.0);

  CallOptions opts;
  opts.attempt_timeout = 50 * kMillisecond;
  int failures = 0;
  sim::Time third_issue = 0;
  sim::Time third_done = -1;
  auto issue = [&](auto&& self) -> void {
    client->Call(server_, "echo", EchoReq{"z"}, opts,
                 [&, self](Result<sim::Payload> r) {
                   EXPECT_FALSE(r.ok());
                   if (++failures < 3) {
                     third_issue = sim_.Now();
                     self(self);
                   } else {
                     third_done = sim_.Now();
                   }
                 });
  };
  issue(issue);
  sim_.Run();
  EXPECT_EQ(failures, 3);
  // Third call hit the open breaker: rejected instantly, no attempt issued.
  EXPECT_EQ(third_done, third_issue);
  EXPECT_EQ(client->stats().breaker_rejects, 1u);
  EXPECT_EQ(client->stats().attempts, 2u);
  EXPECT_FALSE(client->PeerUsable(server_));
}

TEST_F(ResilientRpcTest, HeartbeatsSuspectDeadPeerAndClearHealedPeer) {
  ResilienceOptions options;
  options.heartbeat_interval = 100 * kMillisecond;
  options.heartbeat_timeout = 80 * kMillisecond;
  auto a = MakeClient(options);
  // The peer answers pings through its own ResilientRpc instance.
  ResilientRpc b(&rpc_, server_, options, 4321);

  a->StartHeartbeats({server_});
  sim_.RunFor(3 * kSecond);
  EXPECT_TRUE(a->PeerUsable(server_));
  EXPECT_GT(a->stats().heartbeats_sent, 20u);

  // Kill the peer: probes time out, phi accrues, suspicion rises.
  net_.SetNodeUp(server_, false);
  sim_.RunFor(3 * kSecond);
  EXPECT_FALSE(a->PeerUsable(server_));
  EXPECT_GE(a->stats().suspect_transitions, 1u);
  // The oracle agreed the peer was down: no false positive.
  EXPECT_EQ(a->stats().false_positives, 0u);

  // Heal: probes succeed again and the suspicion clears.
  net_.SetNodeUp(server_, true);
  sim_.RunFor(3 * kSecond);
  EXPECT_TRUE(a->PeerUsable(server_));
}

TEST_F(ResilientRpcTest, FlakyLinkSuspicionCountsAsOracleDisagreement) {
  ResilienceOptions options;
  options.heartbeat_interval = 100 * kMillisecond;
  options.heartbeat_timeout = 80 * kMillisecond;
  auto a = MakeClient(options);
  ResilientRpc b(&rpc_, server_, options, 4321);

  a->StartHeartbeats({server_});
  sim_.RunFor(2 * kSecond);
  // A 100% flaky link is de facto dead, but CanCommunicate cannot see it —
  // the suspicion is "false" only by the blind oracle's account. This is
  // exactly the disagreement the false-positive counter measures.
  net_.SetLinkDropRate(client_, server_, 1.0);
  ASSERT_TRUE(net_.CanCommunicate(client_, server_));
  sim_.RunFor(3 * kSecond);
  EXPECT_FALSE(a->PeerUsable(server_));
  EXPECT_GE(a->stats().false_positives, 1u);
  EXPECT_EQ(
      sim_.metrics()
          .global()
          .CounterFor("resilience.detector.false_positives")
          .value(),
      a->stats().false_positives);
}

// Per-peer state lives in tables indexed by node id. An id above every id
// the tables hold, and a peer the detector forgot, must read exactly as a
// peer never heard from.
TEST_F(ResilientRpcTest, UnseenAndForgottenPeersReadAsNeverHeardFrom) {
  ResilienceOptions options;
  options.heartbeat_interval = 100 * kMillisecond;
  options.heartbeat_timeout = 80 * kMillisecond;
  options.retry_budget.enabled = true;
  options.retry_budget.initial_tokens = 7.5;
  options.aimd.enabled = true;
  options.aimd.initial_limit = 12.0;
  auto a = MakeClient(options);
  ResilientRpc b(&rpc_, server2_, options, 4321);  // answers pings

  // Write rows up to server2_, the highest id: heartbeats to it, and a
  // successful call to server_ that moves its budget and limit.
  a->StartHeartbeats({server2_});
  bool ok = false;
  a->Call(server_, "echo", EchoReq{"x"}, CallOptions{},
          [&](Result<sim::Payload> r) { ok = r.ok(); });
  sim_.RunFor(2 * kSecond);
  ASSERT_TRUE(ok);
  ASSERT_NE(a->budget_tokens(server_), 7.5);
  ASSERT_NE(a->concurrency_limit(server_), 12.0);

  for (const sim::NodeId unseen : {server2_ + 1, server2_ + 1000}) {
    const sim::Time now = sim_.Now();
    EXPECT_EQ(a->detector().Phi(unseen, now), 0.0) << unseen;
    EXPECT_FALSE(a->detector().IsSuspected(unseen, now)) << unseen;
    EXPECT_EQ(a->breaker().StateOf(unseen, now),
              CircuitBreaker::State::kClosed)
        << unseen;
    EXPECT_TRUE(a->PeerUsable(unseen)) << unseen;
    EXPECT_EQ(a->budget_tokens(unseen), 7.5) << unseen;
    EXPECT_EQ(a->concurrency_limit(unseen), 12.0) << unseen;
  }

  // Silence raises server2_'s phi past the threshold; forgetting it
  // returns phi to 0.
  net_.SetNodeUp(server2_, false);
  sim_.RunFor(2 * kSecond);
  ASSERT_GE(a->detector().Phi(server2_, sim_.Now()), kSuspectThreshold);
  a->detector().Forget(server2_);
  EXPECT_EQ(a->detector().Phi(server2_, sim_.Now()), 0.0);
  EXPECT_FALSE(a->detector().IsSuspected(server2_, sim_.Now()));
}

// Satellite: a reply landing after its caller timed out is now visible as
// rpc.late_replies instead of vanishing silently.
TEST_F(ResilientRpcTest, LateReplyAfterTimeoutIsCounted) {
  bool timed_out = false;
  rpc_.Call(client_, server_, "echo", EchoReq{"slow"}, 8 * kMillisecond,
            [&](Result<sim::Payload> r) { timed_out = r.status().IsTimedOut(); });
  sim_.Run();  // reply arrives at 10ms, 2ms after the timeout fired
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(
      sim_.metrics().global().CounterFor("rpc.late_replies").value(), 1u);
}

}  // namespace
}  // namespace evc::resilience

// Fig. 12 — Overload defenses turn a metastable collapse into a bounded dip.
//
// The trigger (Bronson et al., "Metastable Failures in Distributed
// Systems", HotOS '21): a 5x flash crowd whose hot keys also shift lands on
// a quorum store running at ~65% utilization. Two same-seed arms:
//
//   defenses-off: effectively unbounded server queues, no sojourn shedding,
//     retry-happy clients (4 attempts, narrow-band jitter, no budgets, no
//     concurrency limits). The spike fills the queues past the point where
//     every served request has already been abandoned by its caller; after
//     the crowd leaves, retry amplification alone keeps arrival above
//     capacity, so goodput stays collapsed — the metastable state.
//
//   defenses-on: the same crowd against bounded priority queues with
//     CoDel-style sojourn drops and kResourceExhausted+retry-after sheds,
//     and clients with per-destination retry budgets, AIMD concurrency
//     limits, and full-jitter backoff. Excess load is shed while it lasts;
//     within the recovery window goodput is back to >= 90% of the warm
//     baseline (the defended_recovers claim: goodput_recovery >= 0.90).
//
// Both arms share the identical capacity model (admission gates installed,
// 2 slots x 2ms service time per node) so the only variable is the defense.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "workload/shapes.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr uint64_t kSeed = 120;
constexpr int kServers = 5;
constexpr int kClients = 4;
constexpr int kKeyspace = 64;
// 4 clients x one op per 5ms = 800 ops/s offered. Each op crosses ~4 gated
// requests (client RPC + N=3 replica legs) against 5 nodes x 2 slots / 2ms
// = 5000 requests/s of capacity: ~65% utilization before the spike.
constexpr sim::Time kNominalGap = 5 * kMillisecond;
constexpr double kSpikeMultiplier = 5.0;
constexpr sim::Time kArrivalsStart = 1 * kSecond;
constexpr sim::Time kSpikeStart = 5 * kSecond;
constexpr sim::Time kSpikeEnd = 10 * kSecond;
constexpr sim::Time kWarmStart = 2 * kSecond;   // goodput baseline window
constexpr sim::Time kRecoveryStart = 12 * kSecond;  // 2s of post-spike slack
constexpr sim::Time kArrivalsEnd = 20 * kSecond;
constexpr sim::Time kRunUntil = 21 * kSecond;

struct ArmResult {
  std::vector<uint64_t> ok_per_sec;
  std::vector<uint64_t> offered_per_sec;
  double warm_goodput = 0;      // ops/s completing OK, [2s, 5s)
  double spike_goodput = 0;     // [5s, 10s)
  double recovery_goodput = 0;  // [12s, 20s)
  double warm_p99_ms = 0;
  double recovery_p99_ms = 0;
  uint64_t shed_total = 0;
  uint64_t shed_sojourn = 0;
  uint64_t shed_background = 0;
  uint64_t budget_exhausted = 0;
  uint64_t limit_rejects = 0;
  uint64_t resource_exhausted = 0;
  uint64_t late_replies = 0;
};

double WindowRate(const std::vector<uint64_t>& per_sec, sim::Time begin,
                  sim::Time end) {
  uint64_t total = 0;
  for (sim::Time s = begin / kSecond; s < end / kSecond; ++s) {
    total += per_sec[static_cast<size_t>(s)];
  }
  return static_cast<double>(total) /
         (static_cast<double>(end - begin) / kSecond);
}

ArmResult RunArm(bool defenses, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim,
                   std::make_unique<sim::ConstantLatency>(2 * kMillisecond));
  sim::Rpc rpc(&net);

  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.write_quorum = 2;
  config.sloppy = false;  // strict quorum: every failure is overload-caused
  config.client_attempts = 4;
  // Identical capacity model in both arms; only the defenses differ.
  config.admission_enabled = true;
  config.admission.max_concurrent = 2;
  config.admission.service_time = 2 * kMillisecond;
  // The breaker stays off in both arms so recovery (or collapse) is
  // attributable to the queue discipline and retry policy alone.
  config.resilience.breaker_enabled = false;
  if (defenses) {
    config.resilience.retry_budget.enabled = true;
    config.resilience.aimd.enabled = true;
    // Bounded queues + sojourn shed + retry-after are the AdmissionOptions
    // defaults; full-jitter backoff is the RetryOptions default.
  } else {
    // The "naive" server: a queue so deep it never rejects, no sojourn
    // bound — queueing delay is unbounded, which is what sustains the
    // collapsed state.
    config.admission.foreground_queue_limit = 100000;
    config.admission.background_queue_limit = 100000;
    config.admission.sojourn_target = 0;
    config.resilience.retry.jitter_mode =
        resilience::JitterMode::kEqual;  // the synchronized-wave legacy
  }

  repl::DynamoCluster cluster(&rpc, config);
  const auto servers = cluster.AddServers(kServers);

  Rng root(seed ^ 0xf1a5c0ULL);
  std::vector<Rng> streams;
  std::vector<sim::NodeId> clients;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(root.Fork(static_cast<uint64_t>(c)));
    clients.push_back(net.AddNode());
  }

  // Preload the keyspace before measurement starts.
  for (int k = 0; k < kKeyspace; ++k) {
    cluster.Put(clients[0], servers[static_cast<size_t>(k) % kServers],
                "k" + std::to_string(k), "v0", {}, [](Result<Version>) {});
    sim.RunFor(10 * kMillisecond);
  }

  // The trigger: load multiplies AND the hot set moves.
  workload::FlashCrowd crowd({/*base_multiplier=*/1.0, kSpikeMultiplier,
                              kSpikeStart, kSpikeEnd - kSpikeStart,
                              /*ramp=*/0});
  workload::HotKeyShift keys(
      std::make_unique<ZipfianDistribution>(kKeyspace), seed ^ 0x5117ULL);
  sim.ScheduleAfter(kSpikeStart - sim.Now(), [&] { keys.Shift(); });

  ArmResult result;
  result.ok_per_sec.assign(static_cast<size_t>(kRunUntil / kSecond) + 1, 0);
  result.offered_per_sec = result.ok_per_sec;
  Histogram warm_latency, recovery_latency;

  std::function<void(int)> arrive = [&](int c) {
    const sim::Time now = sim.Now();
    if (now >= kArrivalsEnd) return;
    sim.ScheduleAfter(crowd.GapAt(now, kNominalGap), [&, c] { arrive(c); });

    Rng& rng = streams[static_cast<size_t>(c)];
    const std::string key = "k" + std::to_string(keys.Next(rng));
    const sim::NodeId coord = servers[rng.NextBounded(kServers)];
    ++result.offered_per_sec[static_cast<size_t>(now / kSecond)];
    auto done = [&, issued = now](bool ok) {
      if (!ok) return;
      const sim::Time at = sim.Now();
      ++result.ok_per_sec[std::min(result.ok_per_sec.size() - 1,
                                   static_cast<size_t>(at / kSecond))];
      const double latency = static_cast<double>(at - issued);
      if (issued >= kWarmStart && issued < kSpikeStart) {
        warm_latency.Add(latency);
      } else if (issued >= kRecoveryStart && issued < kArrivalsEnd) {
        recovery_latency.Add(latency);
      }
    };
    if (rng.NextBool(0.5)) {
      cluster.Put(clients[static_cast<size_t>(c)], coord, key,
                  "v" + std::to_string(now), {},
                  [done](Result<Version> r) { done(r.ok()); });
    } else {
      cluster.Get(clients[static_cast<size_t>(c)], coord, key,
                  [done](Result<repl::ReadResult> r) { done(r.ok()); });
    }
  };
  for (int c = 0; c < kClients; ++c) {
    sim.ScheduleAfter(kArrivalsStart - sim.Now() +
                          static_cast<sim::Time>(c) * kMillisecond + 1,
                      [&, c] { arrive(c); });
  }

  sim.RunFor(kRunUntil - sim.Now());

  result.warm_goodput = WindowRate(result.ok_per_sec, kWarmStart, kSpikeStart);
  result.spike_goodput = WindowRate(result.ok_per_sec, kSpikeStart, kSpikeEnd);
  result.recovery_goodput =
      WindowRate(result.ok_per_sec, kRecoveryStart, kArrivalsEnd);
  result.warm_p99_ms = warm_latency.Percentile(0.99) / kMillisecond;
  result.recovery_p99_ms = recovery_latency.Percentile(0.99) / kMillisecond;
  for (sim::NodeId node : servers) {
    const resilience::AdmissionStats& a = cluster.admission(node)->stats();
    result.shed_total += a.total_shed();
    result.shed_sojourn += a.shed_sojourn;
    result.shed_background += a.shed_background;
  }
  auto& obs = sim.metrics().global();
  result.budget_exhausted =
      obs.CounterFor("resilience.budget_exhausted").value();
  result.limit_rejects = obs.CounterFor("resilience.limit_rejects").value();
  result.resource_exhausted =
      obs.CounterFor("resilience.resource_exhausted_replies").value();
  result.late_replies = obs.CounterFor("rpc.late_replies").value();
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("fig12_overload");
  harness.Table("goodput_per_sec", {"second", "offered_off", "ok_off",
                                    "offered_on", "ok_on"});
  harness.Table("arms",
                {"mode", "warm_ops_s", "spike_ops_s", "recovery_ops_s",
                 "shed_total", "budget_exhausted", "limit_rejects"});

  std::printf("=== Fig. 12: %.0fx flash crowd + hot-key shift, defenses "
              "off vs on ===\n",
              kSpikeMultiplier);

  const ArmResult off = RunArm(/*defenses=*/false, kSeed);
  const ArmResult on = RunArm(/*defenses=*/true, kSeed);

  for (const auto* arm : {&off, &on}) {
    const char* mode = arm == &off ? "defenses-off" : "defenses-on";
    harness.Row("arms",
                {std::string(mode), arm->warm_goodput, arm->spike_goodput,
                 arm->recovery_goodput, static_cast<double>(arm->shed_total),
                 static_cast<double>(arm->budget_exhausted),
                 static_cast<double>(arm->limit_rejects)});
  }
  for (size_t s = 0; s < off.ok_per_sec.size(); ++s) {
    harness.Row("goodput_per_sec",
                {static_cast<double>(s),
                 static_cast<double>(off.offered_per_sec[s]),
                 static_cast<double>(off.ok_per_sec[s]),
                 static_cast<double>(on.offered_per_sec[s]),
                 static_cast<double>(on.ok_per_sec[s])});
  }

  // The two headline ratios: how much of its warm goodput the defended arm
  // recovers, and how much the undefended arm lost for good.
  const double recovery_ratio =
      off.warm_goodput > 0 && on.warm_goodput > 0
          ? on.recovery_goodput / on.warm_goodput
          : 0.0;
  const double collapse_depth =
      off.warm_goodput > 0 ? 1.0 - off.recovery_goodput / off.warm_goodput
                           : 0.0;

  harness.Metric("goodput_recovery", recovery_ratio);
  harness.Metric("collapse_depth_off", collapse_depth);
  harness.Metric("warm_ops_s_on", on.warm_goodput);
  harness.Metric("spike_ops_s_on", on.spike_goodput);
  harness.Metric("recovery_ops_s_on", on.recovery_goodput);
  harness.Metric("warm_ops_s_off", off.warm_goodput);
  harness.Metric("recovery_ops_s_off", off.recovery_goodput);
  harness.Metric("shed_total_on", static_cast<double>(on.shed_total));
  harness.Metric("shed_sojourn_on", static_cast<double>(on.shed_sojourn));
  harness.Metric("budget_exhausted_on",
                 static_cast<double>(on.budget_exhausted));
  harness.Metric("limit_rejects_on", static_cast<double>(on.limit_rejects));
  harness.Metric("resource_exhausted_on",
                 static_cast<double>(on.resource_exhausted));
  harness.Metric("late_replies_off", static_cast<double>(off.late_replies));
  harness.Metric("late_replies_on", static_cast<double>(on.late_replies));
  harness.Metric("warm_p99_ms_on", on.warm_p99_ms);
  harness.Metric("recovery_p99_ms_on", on.recovery_p99_ms);
  harness.Note("config",
               "N=3 R=W=2 strict quorum, 5 servers x 2 slots x 2ms service "
               "(~1250 op/s capacity), 4 open-loop clients at 800 op/s, "
               "spike over [5s,10s), recovery window [12s,20s)");
  harness.Claim("undefended_stays_collapsed", collapse_depth >= 0.50,
                "undefended, the crowd collapses the store and retries keep "
                "it below half its warm goodput after load recedes");
  harness.Claim("defended_recovers", recovery_ratio >= 0.90,
                "defended, goodput is back to 90% of warm within 2 s of the "
                "crowd leaving; below it, the store stayed metastable");
  return harness.Finish();
}

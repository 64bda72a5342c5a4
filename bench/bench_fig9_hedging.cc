// Fig. 9 — Hedged requests cut the gray-failure tail.
//
// Claim ("The Tail at Scale", reused by the tutorial's availability
// discussion): when one replica is slow rather than dead — the kSlowNode
// gray failure, invisible to a connectivity oracle — issuing a hedged copy
// of a slow read to another coordinator after a fixed brief delay collapses
// the p99 tail while leaving the median untouched. Two same-seed runs of
// the identical workload, hedging off vs on, under one slow node.

#include <cstdio>
#include <memory>
#include <string>

#include "common/stats.h"
#include "harness.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "sim/nemesis.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr int kServers = 5;
constexpr int kKeys = 40;
constexpr int kReads = 400;
constexpr sim::Time kSlowNodeDelay = 100 * kMillisecond;
constexpr sim::Time kHedgeDelay = 50 * kMillisecond;

struct RunResult {
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;
  uint64_t hedges_lost = 0;
  uint64_t reads_ok = 0;
};

RunResult RunOnce(bool hedging, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim,
                   std::make_unique<sim::ConstantLatency>(5 * kMillisecond));
  sim::Rpc rpc(&net);

  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.write_quorum = 2;
  config.hedge_reads = hedging;
  // Fixed-delay hedging: keep the trigger below the percentile-estimation
  // threshold so both runs hedge after the same deterministic 50ms.
  config.resilience.hedge.default_delay = kHedgeDelay;
  config.resilience.hedge.min_samples = 1u << 20;
  repl::DynamoCluster cluster(&rpc, config);
  const auto servers = cluster.AddServers(kServers);
  const sim::NodeId client = net.AddNode();

  // Seed the keyspace before the gray failure lands.
  for (int k = 0; k < kKeys; ++k) {
    cluster.Put(client, servers[1], "key" + std::to_string(k),
                "v" + std::to_string(k), {}, [](Result<Version>) {});
    sim.RunFor(2 * kSecond);
  }

  // One server turns slow (not dead): every message it sends or receives
  // eats an extra processing delay. CanCommunicate still reports it fine.
  sim::Nemesis nemesis(&net, servers, seed);
  sim::FaultPlan plan;
  plan.SlowNodeAt(sim.Now() + kMillisecond, servers[0], kSlowNodeDelay);
  nemesis.Execute(plan);
  sim.RunFor(10 * kMillisecond);

  // Round-robin reads across all coordinators: 1-in-5 reads lands on the
  // slow coordinator and inherits its tail unless the hedge escapes it.
  Histogram latency;
  RunResult result;
  for (int i = 0; i < kReads; ++i) {
    const std::string key = "key" + std::to_string(i % kKeys);
    const sim::NodeId coordinator = servers[i % kServers];
    const sim::Time start = sim.Now();
    sim::Time done = -1;
    cluster.Get(client, coordinator, key, [&](Result<repl::ReadResult> r) {
      if (r.ok()) done = sim.Now();
    });
    sim.RunFor(5 * kSecond);
    if (done >= 0) {
      latency.Add(static_cast<double>(done - start));
      ++result.reads_ok;
    }
  }

  result.p50_ms = latency.Percentile(0.5) / kMillisecond;
  result.p99_ms = latency.Percentile(0.99) / kMillisecond;
  auto& obs = sim.metrics().global();
  result.hedges_issued = obs.CounterFor("resilience.hedges_issued").value();
  result.hedges_won = obs.CounterFor("resilience.hedges_won").value();
  result.hedges_lost = obs.CounterFor("resilience.hedges_lost").value();
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("fig9_hedging");
  harness.Table("tail", {"mode", "p50_ms", "p99_ms", "hedges_issued",
                         "hedges_won", "hedges_lost", "reads_ok"});
  std::printf(
      "=== Fig. 9: hedged reads vs a slow node (+%lldms processing) ===\n",
      static_cast<long long>(kSlowNodeDelay / kMillisecond));

  const uint64_t kSeed = 90;
  const RunResult off = RunOnce(/*hedging=*/false, kSeed);
  const RunResult on = RunOnce(/*hedging=*/true, kSeed);
  for (const RunResult* r : {&off, &on}) {
    harness.Row("tail",
                {std::string(r == &on ? "hedging-on" : "hedging-off"),
                 r->p50_ms, r->p99_ms, static_cast<double>(r->hedges_issued),
                 static_cast<double>(r->hedges_won),
                 static_cast<double>(r->hedges_lost),
                 static_cast<double>(r->reads_ok)});
  }

  harness.Metric("p99_ms_hedging_off", off.p99_ms);
  harness.Metric("p99_ms_hedging_on", on.p99_ms);
  harness.Metric("p50_ms_hedging_off", off.p50_ms);
  harness.Metric("p50_ms_hedging_on", on.p50_ms);
  harness.Metric("hedges_won", static_cast<double>(on.hedges_won));
  harness.Note("config",
               "N=3 R=2 W=2, 5 servers, 1-in-5 reads coordinated by the "
               "slow node, fixed 50ms hedge delay");
  harness.Claim("p99_drops", on.p99_ms < off.p99_ms,
                "hedging cuts the p99 read latency");
  harness.Claim("p50_unchanged", on.p50_ms == off.p50_ms,
                "hedging leaves the median read latency unchanged");
  const double hedge_delay_ms =
      static_cast<double>(kHedgeDelay) / kMillisecond;
  harness.Claim("hedged_tail_bounded",
                on.hedges_won > 0 && on.p99_ms <= hedge_delay_ms + off.p50_ms,
                "hedges win, and the hedged p99 stays within the hedge delay "
                "plus one fast round trip (the unhedged p50)");
  return harness.Finish();
}

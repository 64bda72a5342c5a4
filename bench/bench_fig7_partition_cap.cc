// Fig. 7 — CAP during a partition: the AP store serves (stale), the CP
// store refuses (unavailable), and both recover after healing.
//
// Claim (tutorial, after Brewer/Gilbert-Lynch): during a partition a system
// chooses between availability and consistency. We cut one datacenter off
// for 10 virtual seconds while a client on the minority side issues a
// read+write per 200 ms, then heal:
//   * eventual (Dynamo R=W=1, sloppy): 100% of minority ops succeed, reads
//     can be stale, replicas re-converge after healing (hints/anti-entropy);
//   * strong (Multi-Paxos): minority ops fail for the duration, zero stale
//     reads ever, minority catches up after healing.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/paxos.h"
#include "harness.h"
#include "obs/export.h"
#include "replication/quorum_store.h"
#include "sim/nemesis.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct PartitionResult {
  int ops_attempted = 0;
  int ops_succeeded = 0;
  int stale_reads = 0;
  double heal_to_converged_ms = -1;
};

PartitionResult RunEventual(uint64_t seed, bench::Harness* out) {
  sim::Simulator sim(seed);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 1;
  config.write_quorum = 1;
  config.sloppy = true;
  repl::DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(3);
  for (int i = 0; i < 3; ++i) wan->AssignNode(servers[i], i);
  cluster.StartAntiEntropy(200 * kMillisecond);
  cluster.StartHintDelivery(200 * kMillisecond);

  const sim::NodeId majority_client = net.AddNode();
  wan->AssignNode(majority_client, 0);
  const sim::NodeId minority_client = net.AddNode();
  wan->AssignNode(minority_client, 2);

  // Seed a key everyone knows.
  bool seeded = false;
  cluster.Put(majority_client, servers[0], "status", "all-good", {},
              [&](Result<Version> r) { seeded = r.ok(); });
  sim.RunFor(2 * kSecond);
  EVC_CHECK(seeded);
  sim.RunFor(2 * kSecond);  // replicate everywhere

  // Partition DC2 (with its client) away for 10 s, declaratively.
  sim::Nemesis nemesis(&net, servers, seed);
  sim::FaultPlan plan;
  plan.PartitionAt(0, {{servers[0], servers[1], majority_client},
                       {servers[2], minority_client}})
      .HealAt(10 * kSecond);
  nemesis.Execute(plan);

  PartitionResult result;
  int op_counter = 0;
  const sim::Time partition_end = sim.Now() + 10 * kSecond;
  std::string last_majority_value = "all-good";
  while (sim.Now() < partition_end) {
    // Majority side keeps updating the key.
    ++op_counter;
    last_majority_value = "update" + std::to_string(op_counter);
    cluster.Put(majority_client, servers[0], "status", last_majority_value,
                {}, [](Result<Version>) {});
    // Minority client writes its own key and reads the shared one.
    ++result.ops_attempted;
    cluster.Put(minority_client, servers[2],
                "minority" + std::to_string(op_counter), "x", {},
                [&](Result<Version> r) {
                  if (r.ok()) ++result.ops_succeeded;
                });
    ++result.ops_attempted;
    const std::string expect = last_majority_value;
    cluster.Get(minority_client, servers[2], "status",
                [&](Result<repl::ReadResult> r) {
                  if (!r.ok()) return;
                  ++result.ops_succeeded;
                  bool current = false;
                  for (const auto& v : r->versions) {
                    current |= v.value == expect;
                  }
                  if (!current) ++result.stale_reads;
                });
    sim.RunFor(200 * kMillisecond);
  }

  // The plan's heal has fired; measure time to convergence of the key.
  const sim::Time heal_at = sim.Now();
  while (sim.Now() < heal_at + 30 * kSecond) {
    sim.RunFor(50 * kMillisecond);
    if (cluster.AntiEntropyConverged()) break;
  }
  result.heal_to_converged_ms =
      cluster.AntiEntropyConverged()
          ? static_cast<double>(sim.Now() - heal_at) / kMillisecond
          : -1;

  // Ship the eventual run's obs state with the bench JSON: the sim-wide
  // metrics registries under "sim", plus headline counters as metrics.
  out->AttachSim(sim);
  obs::MetricsRegistry& g = sim.metrics().global();
  out->Metric("eventual_rpc_calls",
              static_cast<double>(g.CounterFor("rpc.calls").value()));
  out->Metric("eventual_rpc_timeouts",
              static_cast<double>(g.CounterFor("rpc.timeouts").value()));
  out->Metric("eventual_net_delivered",
              static_cast<double>(g.CounterFor("net.delivered").value()));
  if (const char* dir = std::getenv("EVC_TRACE_OUT");
      dir != nullptr && dir[0] != '\0') {
    const std::string path = std::string(dir) + "/TRACE_fig7_eventual.json";
    EVC_CHECK_OK(obs::WriteFile(
        path, obs::TraceToJson(sim.tracer()).Dump(2) + "\n"));
    std::fprintf(stderr, "bench harness: wrote %s\n", path.c_str());
  }
  return result;
}

PartitionResult RunStrong(uint64_t seed) {
  sim::Simulator sim(seed);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  consensus::PaxosCluster cluster(&rpc, consensus::PaxosOptions{});
  auto servers = cluster.AddServers(3);
  for (int i = 0; i < 3; ++i) wan->AssignNode(servers[i], i);
  const sim::NodeId majority_client = net.AddNode();
  wan->AssignNode(majority_client, 0);
  const sim::NodeId minority_client = net.AddNode();
  wan->AssignNode(minority_client, 2);
  consensus::PaxosKvClient majority(&cluster, &sim, majority_client, servers);
  consensus::PaxosKvClient minority(&cluster, &sim, minority_client,
                                    {servers[2]});  // only its local server
  cluster.Start();
  sim.RunFor(3 * kSecond);

  bool seeded = false;
  majority.Put("status", "all-good", [&](Result<uint64_t> r) {
    seeded = r.ok();
  });
  sim.RunFor(10 * kSecond);
  EVC_CHECK(seeded);

  // 3 s of re-election slack + 10 s of partitioned operation, then heal.
  sim::Nemesis nemesis(&net, servers, seed);
  sim::FaultPlan plan;
  plan.PartitionAt(0, {{servers[0], servers[1], majority_client},
                       {servers[2], minority_client}})
      .HealAt(13 * kSecond);
  nemesis.Execute(plan);
  sim.RunFor(3 * kSecond);  // give the majority time to (re)elect

  PartitionResult result;
  const sim::Time partition_end = sim.Now() + 10 * kSecond;
  int op_counter = 0;
  while (sim.Now() < partition_end) {
    ++op_counter;
    majority.Put("status", "update" + std::to_string(op_counter),
                 [](Result<uint64_t>) {});
    ++result.ops_attempted;
    minority.Put("minority" + std::to_string(op_counter), "x",
                 [&](Result<uint64_t> r) {
                   if (r.ok()) ++result.ops_succeeded;
                 });
    ++result.ops_attempted;
    minority.Get("status", [&](Result<std::string> r) {
      if (r.ok()) {
        ++result.ops_succeeded;
        // Linearizable reads can never be stale; nothing to count.
      }
    });
    sim.RunFor(200 * kMillisecond);
  }

  // The plan's heal has fired by now.
  const sim::Time heal_at = sim.Now();
  // Convergence: minority replica applies the majority's last chosen slot.
  while (sim.Now() < heal_at + 60 * kSecond) {
    sim.RunFor(100 * kMillisecond);
    const uint64_t a = cluster.AppliedIndex(servers[0]);
    if (a > 0 && cluster.AppliedIndex(servers[2]) >= a) break;
  }
  result.heal_to_converged_ms =
      static_cast<double>(sim.Now() - heal_at) / kMillisecond;
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("fig7_partition_cap");
  harness.Table("partition", {"system", "ops_attempted", "ops_succeeded",
                              "stale_reads", "heal_to_converged_ms"});
  std::printf(
      "=== Fig. 7: 10-second partition, client on the minority side ===\n");
  const PartitionResult ap = RunEventual(5, &harness);
  const PartitionResult cp = RunStrong(6);
  for (const PartitionResult* r : {&ap, &cp}) {
    harness.Row("partition",
                {obs::Json(r == &ap ? "eventual" : "strong"),
                 obs::Json(r->ops_attempted), obs::Json(r->ops_succeeded),
                 obs::Json(r->stale_reads),
                 obs::Json(r->heal_to_converged_ms)});
  }
  harness.Claim("ap_answers",
                ap.ops_succeeded * 100 >= ap.ops_attempted * 95 &&
                    ap.stale_reads > 0,
                "the eventual store answers at least 95% of minority-side "
                "ops, and some of its reads are stale");
  harness.Claim("cp_refuses",
                cp.ops_succeeded * 100 <= cp.ops_attempted * 5 &&
                    cp.stale_reads == 0,
                "the strong store refuses at least 95% of them and never "
                "serves a stale read");
  harness.Claim("both_reconverge",
                ap.heal_to_converged_ms >= 0 &&
                    std::max(ap.heal_to_converged_ms,
                             cp.heal_to_converged_ms) <= 2000,
                "both stores converge within 2 s of the heal");
  return harness.Finish();
}

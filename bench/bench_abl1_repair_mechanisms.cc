// Ablation 1 — which repair mechanism does the work?
//
// Dynamo-style stores layer three redundant convergence mechanisms:
// hinted handoff (proactive, write-time), read repair (reactive, on the
// read path), and anti-entropy (background, catches everything else).
// DESIGN.md calls for an ablation: knock each out and measure how a
// replica that missed 50 writes (crashed) regains them.
//
// Metric: after the replica restarts, (a) how long until it converges,
// (b) how many of 100 subsequent R=1 reads would have been stale.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "replication/quorum_store.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct AblationResult {
  double converge_ms = -1;  // restart -> all preference lists converged
  int stale_window_reads = 0;
};

AblationResult Run(bool hints, bool read_repair, bool anti_entropy,
                   uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 15 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 1;
  config.write_quorum = 1;
  config.sloppy = hints;  // sloppy quorums are what generate hints
  config.read_repair = read_repair;
  repl::DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(5);
  const sim::NodeId client = net.AddNode();

  // Heartbeats let a node stop suspecting the victim once it restarts;
  // without them the holder of a hint would never hand it off.
  cluster.StartFailureDetection();
  if (anti_entropy) cluster.StartAntiEntropy(250 * kMillisecond);
  if (hints) cluster.StartHintDelivery(250 * kMillisecond);

  // The victim replica serves key "hot" and crashes before the writes.
  const auto pref = cluster.PreferenceList("hot");
  const sim::NodeId victim = pref[1];
  net.SetNodeUp(victim, false);

  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    // Find a live coordinator.
    sim::NodeId coordinator = pref[0];
    cluster.Put(client, coordinator, "hot", "v" + std::to_string(i), {},
                [&](Result<Version> r) {
                  if (r.ok()) ++completed;
                });
    sim.RunFor(300 * kMillisecond);
  }

  net.SetNodeUp(victim, true);
  const sim::Time restart_at = sim.Now();

  // Issue periodic reads (they drive read repair when enabled) and watch
  // for convergence.
  AblationResult result;
  int reads_done = 0;
  while (sim.Now() < restart_at + 60 * kSecond) {
    if (reads_done < 100) {
      ++reads_done;
      // Ground truth staleness of the victim before this read.
      const bool victim_stale = !cluster.ReplicasConverged("hot");
      if (victim_stale) ++result.stale_window_reads;
      cluster.Get(client, pref[0], "hot", [](Result<repl::ReadResult>) {});
    }
    sim.RunFor(100 * kMillisecond);
    if (cluster.ReplicasConverged("hot")) {
      result.converge_ms =
          static_cast<double>(sim.Now() - restart_at) / kMillisecond;
      break;
    }
  }
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("abl1_repair_mechanisms");
  harness.Table("ablation",
                {"hints", "read_repair", "anti_entropy", "converge_ms",
                 "stale_window_reads"});
  std::printf(
      "=== Ablation 1: repair mechanisms for a replica that missed 50 "
      "writes ===\n");
  // `converges` is what the repair_arms claim says of each arm.
  struct Config {
    bool hints, repair, ae, converges;
  };
  const Config configs[] = {
      {false, false, false, false}, {true, false, false, true},
      {false, true, false, false},  {false, false, true, true},
      {true, true, true, true},
  };
  uint64_t seed = 91;
  bool arms_hold = true;
  double fastest_single = 1e18;  // fastest arm with one mechanism on
  double all_three = -1;
  for (const Config& c : configs) {
    const AblationResult r = Run(c.hints, c.repair, c.ae, seed++);
    harness.Row("ablation",
                {obs::Json(c.hints), obs::Json(c.repair), obs::Json(c.ae),
                 obs::Json(r.converge_ms),
                 obs::Json(r.stale_window_reads)});
    arms_hold = arms_hold && (r.converge_ms >= 0) == c.converges;
    if (c.hints && c.repair && c.ae) {
      all_three = r.converge_ms;
    } else if (r.converge_ms >= 0) {
      fastest_single = std::min(fastest_single, r.converge_ms);
    }
  }
  harness.Claim("repair_arms", arms_hold,
                "within 60 s nothing converges the replica with every repair "
                "off or with read repair alone at R=1 (one reply never "
                "disagrees with itself); hints, anti-entropy and all three do");
  harness.Claim("all_three_fastest",
                all_three >= 0 && all_three <= fastest_single,
                "all three together converge no later than any one alone");
  return harness.Finish();
}

// Fig. 3 — Anti-entropy: epidemic convergence and Merkle sync cost.
//
// Claims (tutorial):
//   (a) gossip spreads an update epidemically — convergence time grows
//       ~logarithmically with cluster size and shrinks with fanout;
//   (b) Merkle-tree sync moves work proportional to the *divergence*
//       between replicas, not the database size.
//
// Output: (a) virtual time to full convergence for cluster sizes 4..64 and
// fanouts 1..3; (b) digests/keys shipped to reconcile d dirty keys out of a
// 20k-key database.
//
// (b) counts the digests of one AntiEntropy::SyncPair, which descends the
// depth-14 tree into differing subtrees only (MerkleTree::DiffLeaves): 29
// for one dirty key. A gossip round does not descend. Its SyncRequest
// carries all 2^14 leaf digests plus the root, 16,385 digests whatever the
// divergence, and that flat request is what bench/stack's
// ae.digests_shipped_per_op counts.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "replication/anti_entropy.h"
#include "sim/rpc.h"

using namespace evc;
using repl::AntiEntropy;
using repl::AntiEntropyOptions;
using sim::kMillisecond;
using sim::kSecond;

namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

sim::Time MeasureConvergence(int replicas, int fanout, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             kMillisecond, 10 * kMillisecond));
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<ReplicaStorage>> storages;
  std::vector<ReplicaStorage*> raw;
  ReplicaStorageOptions storage_options;
  storage_options.durable = false;
  for (int i = 0; i < replicas; ++i) {
    nodes.push_back(net.AddNode());
    storages.push_back(std::make_unique<ReplicaStorage>(
        static_cast<uint32_t>(i), storage_options));
    raw.push_back(storages.back().get());
  }
  AntiEntropyOptions options;
  options.interval = 100 * kMillisecond;
  options.fanout = fanout;
  AntiEntropy ae(&net, nodes, raw, options);
  // Seed 100 fresh keys at replica 0 ("rumor source").
  for (int k = 0; k < 100; ++k) {
    storages[0]->Put("key" + std::to_string(k), "v", {}, Ts(k + 1));
  }
  ae.Start();
  // Poll for convergence.
  const sim::Time poll = 10 * kMillisecond;
  while (sim.Now() < 120 * kSecond) {
    sim.RunFor(poll);
    if (ae.Converged()) return sim.Now();
  }
  return -1;
}

}  // namespace

int main() {
  bench::Harness harness("fig3_antientropy");
  harness.Table("convergence",
                {"replicas", "fanout", "median_converge_s"});
  harness.Table("merkle_cost", {"dirty_keys", "digests_compared",
                                "keys_shipped", "shipped_fraction"});
  std::printf(
      "=== Fig. 3: gossip convergence (100 keys seeded at one replica, "
      "100 ms rounds,\nmedian of 5 seeds) and one depth-14 Merkle sync of "
      "20000 shared keys plus d dirty ===\n");
  // Median seconds by fanout: at 4 replicas, and at the previous size.
  double at_four[4] = {}, at_prev_size[4] = {};
  bool sublinear = true, fanout_helps = true;
  for (int replicas : {4, 8, 16, 32, 64}) {
    double at_prev_fanout = 1e18;
    for (int fanout : {1, 2, 3}) {
      std::vector<sim::Time> times;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        times.push_back(MeasureConvergence(replicas, fanout, seed));
      }
      std::sort(times.begin(), times.end());
      const double median_s = static_cast<double>(times[2]) / kSecond;
      harness.Row("convergence", {obs::Json(replicas), obs::Json(fanout),
                                  obs::Json(median_s)});
      if (replicas == 4) at_four[fanout] = median_s;
      sublinear = sublinear && median_s > 0 &&
                  median_s >= at_prev_size[fanout] &&
                  median_s < 4 * at_four[fanout];
      fanout_helps = fanout_helps && median_s <= at_prev_fanout;
      at_prev_size[fanout] = at_prev_fanout = median_s;
    }
  }
  harness.Claim("gossip_grows_slowly", sublinear,
                "convergence time never falls as the cluster grows, yet up "
                "to 64 replicas it stays under 4x the time of 4");
  harness.Claim("fanout_speeds_gossip", fanout_helps,
                "at every cluster size a larger fanout converges no later");

  bool tracks_divergence = true;
  for (int dirty : {1, 10, 100, 1000, 5000}) {
    sim::Simulator sim(7);
    sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                               kMillisecond));
    std::vector<sim::NodeId> nodes = {net.AddNode(), net.AddNode()};
    ReplicaStorageOptions storage_options;
    storage_options.durable = false;
    storage_options.merkle_depth = 14;
    ReplicaStorage a(0, storage_options), b(1, storage_options);
    for (int k = 0; k < 20000; ++k) {
      const std::string key = "key" + std::to_string(k);
      a.Put(key, "v", {}, Ts(k + 1));
      b.MergeRemote(key, a.GetRaw(key));
    }
    for (int k = 0; k < dirty; ++k) {
      a.Put("dirty" + std::to_string(k), "v", {}, Ts(100000 + k));
    }
    AntiEntropy ae(&net, nodes, {&a, &b}, AntiEntropyOptions{});
    ae.SyncPair(0, 1);
    EVC_CHECK(ae.Converged());
    const uint64_t shipped = ae.stats().keys_shipped;
    harness.Row("merkle_cost",
                {obs::Json(dirty), obs::Json(ae.stats().digests_shipped),
                 obs::Json(shipped),
                 obs::Json(static_cast<double>(shipped) / (20000.0 + dirty))});
    const auto d = static_cast<uint64_t>(dirty);
    tracks_divergence = tracks_divergence && shipped >= d && shipped <= 10 * d;
  }
  harness.Claim("merkle_ships_divergence", tracks_divergence,
                "a sync ships between d and 10*d keys for d dirty keys: its "
                "cost tracks the divergence, not the 20000-key database");
  return harness.Finish();
}

// Ablation 2 — anti-entropy design knobs: Merkle depth and push vs
// push-pull gossip.
//
// (a) Merkle tree depth trades digest-exchange volume against key-transfer
//     precision: a shallow tree ships whole buckets of clean keys, a deep
//     one a long digest list. Over depths 6..16 on a 50k-key database the
//     key volume dominates, so the combined cost proxy keeps falling.
//     The digests counted are one AntiEntropy::SyncPair's tree descent
//     (MerkleTree::DiffLeaves), 109 at depth 6 and 949 at depth 16. A
//     gossip round ships a flat SyncRequest instead: every leaf digest plus
//     the root, 2^depth + 1, which is 65,537 at depth 16. Priced at that
//     request, the proxy would bottom out at depth 12 (16,209).
// (b) Push-pull gossip converges faster than push-only for the same round
//     budget (rumors travel both directions per pairing).

#include <algorithm>
#include <cstdint>
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

void MerkleDepthSweep(bench::Harness* out) {
  bool digests_rise = true, keys_fall = true;
  uint64_t prev_digests = 0, prev_keys = UINT64_MAX;
  for (int depth : {6, 8, 10, 12, 14, 16}) {
    sim::Simulator sim(7);
    sim::Network net(&sim,
                     std::make_unique<sim::ConstantLatency>(kMillisecond));
    std::vector<sim::NodeId> nodes = {net.AddNode(), net.AddNode()};
    ReplicaStorageOptions options;
    options.durable = false;
    options.merkle_depth = depth;
    ReplicaStorage a(0, options), b(1, options);
    for (int k = 0; k < 50000; ++k) {
      const std::string key = "key" + std::to_string(k);
      a.Put(key, "v", {}, Ts(k + 1));
      b.MergeRemote(key, a.GetRaw(key));
    }
    for (int k = 0; k < 50; ++k) {
      a.Put("dirty" + std::to_string(k), "v", {}, Ts(100000 + k));
    }
    AntiEntropy ae(&net, nodes, {&a, &b}, AntiEntropyOptions{});
    ae.SyncPair(0, 1);
    EVC_CHECK(ae.Converged());
    const auto& s = ae.stats();
    out->Row("merkle_depth",
             {obs::Json(depth),
              obs::Json(static_cast<uint64_t>(s.digests_shipped)),
              obs::Json(static_cast<uint64_t>(s.keys_shipped)),
              obs::Json(static_cast<uint64_t>(s.digests_shipped +
                                              s.keys_shipped * 8))});
    digests_rise = digests_rise && s.digests_shipped > prev_digests;
    keys_fall = keys_fall && s.keys_shipped < prev_keys;
    prev_digests = s.digests_shipped;
    prev_keys = s.keys_shipped;
  }
  out->Claim("depth_trades_digests_for_keys", digests_rise && keys_fall,
             "from depth 6 to 16 each deeper tree ships more digests and "
             "fewer keys (50k-key DB, 50 dirty keys)");
}

double MeasureConvergence(bool push_pull, int replicas, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             kMillisecond, 10 * kMillisecond));
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<ReplicaStorage>> storages;
  std::vector<ReplicaStorage*> raw;
  ReplicaStorageOptions options;
  options.durable = false;
  for (int i = 0; i < replicas; ++i) {
    nodes.push_back(net.AddNode());
    storages.push_back(std::make_unique<ReplicaStorage>(
        static_cast<uint32_t>(i), options));
    raw.push_back(storages.back().get());
  }
  AntiEntropyOptions ae_options;
  ae_options.interval = 100 * kMillisecond;
  ae_options.push_pull = push_pull;
  AntiEntropy ae(&net, nodes, raw, ae_options);
  for (int k = 0; k < 50; ++k) {
    storages[0]->Put("key" + std::to_string(k), "v", {}, Ts(k + 1));
  }
  ae.Start();
  while (sim.Now() < 300 * kSecond) {
    sim.RunFor(20 * kMillisecond);
    if (ae.Converged()) return static_cast<double>(sim.Now()) / kSecond;
  }
  return -1;
}

void PushPullSweep(bench::Harness* out) {
  bool push_pull_faster = true;
  for (int replicas : {8, 16, 32, 64}) {
    std::vector<double> push, pp;
    for (uint64_t seed = 1; seed <= 7; ++seed) {
      push.push_back(MeasureConvergence(false, replicas, seed));
      pp.push_back(MeasureConvergence(true, replicas, seed * 100));
    }
    std::sort(push.begin(), push.end());
    std::sort(pp.begin(), pp.end());
    out->Row("gossip", {obs::Json(replicas), obs::Json(push[3]),
                        obs::Json(pp[3])});
    push_pull_faster = push_pull_faster && pp[3] >= 0 && pp[3] < push[3];
  }
  out->Claim("push_pull_faster", push_pull_faster,
             "push-pull gossip converges faster than push-only at every "
             "cluster size (median of 7 seeds)");
}

}  // namespace

int main() {
  bench::Harness harness("abl2_merkle_gossip");
  harness.Table("merkle_depth",
                {"depth", "digests_shipped", "keys_shipped", "cost_proxy"});
  harness.Table("gossip", {"replicas", "push_only_s", "push_pull_s"});
  std::printf("=== Ablation 2: anti-entropy design knobs ===\n");
  MerkleDepthSweep(&harness);
  PushPullSweep(&harness);
  return harness.Finish();
}

#include "replication/anti_entropy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sim/rpc.h"

namespace evc::repl {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class AntiEntropyTest : public ::testing::Test {
 protected:
  void Build(int replica_count, AntiEntropyOptions options = {},
             uint64_t seed = 11) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<sim::Network>(
        sim_.get(), std::make_unique<sim::ConstantLatency>(5 * kMillisecond));
    for (int i = 0; i < replica_count; ++i) {
      nodes_.push_back(net_->AddNode());
      storages_.push_back(std::make_unique<ReplicaStorage>(
          static_cast<uint32_t>(i), ReplicaStorageOptions{}));
      raw_storages_.push_back(storages_.back().get());
    }
    ae_ = std::make_unique<AntiEntropy>(net_.get(), nodes_, raw_storages_,
                                        options);
  }

  LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
    return LamportTimestamp{c, node};
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<sim::NodeId> nodes_;
  std::vector<std::unique_ptr<ReplicaStorage>> storages_;
  std::vector<ReplicaStorage*> raw_storages_;
  std::unique_ptr<AntiEntropy> ae_;
};

TEST_F(AntiEntropyTest, SyncPairTransfersMissingKeys) {
  Build(2);
  storages_[0]->Put("a", "1", {}, Ts(1));
  storages_[0]->Put("b", "2", {}, Ts(2));
  EXPECT_FALSE(ae_->Converged());
  EXPECT_TRUE(ae_->SyncPair(0, 1));
  EXPECT_TRUE(ae_->Converged());
  EXPECT_EQ(storages_[1]->Get("a").size(), 1u);
  EXPECT_EQ(storages_[1]->Get("b").size(), 1u);
}

TEST_F(AntiEntropyTest, SyncPairIsBidirectional) {
  Build(2);
  storages_[0]->Put("only-on-0", "x", {}, Ts(1, 0));
  storages_[1]->Put("only-on-1", "y", {}, Ts(1, 1));
  ae_->SyncPair(0, 1);
  EXPECT_TRUE(ae_->Converged());
  EXPECT_FALSE(storages_[0]->Get("only-on-1").empty());
  EXPECT_FALSE(storages_[1]->Get("only-on-0").empty());
}

TEST_F(AntiEntropyTest, SyncPairSkipsWhenIdentical) {
  Build(2);
  storages_[0]->Put("k", "v", {}, Ts(1));
  ae_->SyncPair(0, 1);
  const auto shipped_before = ae_->stats().keys_shipped;
  EXPECT_FALSE(ae_->SyncPair(0, 1));
  EXPECT_EQ(ae_->stats().keys_shipped, shipped_before);
  EXPECT_GE(ae_->stats().syncs_skipped, 1u);
}

TEST_F(AntiEntropyTest, SyncCostProportionalToDivergenceNotDbSize) {
  Build(2);
  // Large shared database.
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "shared" + std::to_string(i);
    storages_[0]->Put(key, "v", {}, Ts(i + 1));
    storages_[1]->MergeRemote(key, storages_[0]->GetRaw(key));
  }
  // Small divergence.
  for (int i = 0; i < 5; ++i) {
    storages_[0]->Put("fresh" + std::to_string(i), "v", {}, Ts(10000 + i));
  }
  ae_->SyncPair(0, 1);
  EXPECT_TRUE(ae_->Converged());
  // Keys shipped should be near the divergence (same-bucket collateral keys
  // allowed), far below database size.
  EXPECT_LT(ae_->stats().keys_shipped, 100u);
}

TEST_F(AntiEntropyTest, GossipConvergesEightReplicas) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  options.fanout = 1;
  Build(8, options);
  for (int i = 0; i < 20; ++i) {
    storages_[0]->Put("key" + std::to_string(i), "v", {}, Ts(i + 1));
  }
  ae_->Start();
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(storages_[r]->key_count(), 20u) << "replica " << r;
  }
}

// Anti-entropy ships set objects, and a merge whose result equals the
// shipped set adopts it, so a converged cluster holds one copy of each
// version however many replicas hold its key.
TEST_F(AntiEntropyTest, ConvergedReplicasShareOneCopyPerVersion) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(8, options);
  uint64_t ts = 0;
  for (int i = 0; i < 20; ++i) {
    storages_[0]->Put("key" + std::to_string(i), "v1", {}, Ts(++ts));
  }
  ae_->Start();
  sim_->RunFor(1 * kSecond);
  // Overwrite half the keys mid-gossip: replicas must move on to the new
  // sets rather than keep the ones they adopted first.
  for (int i = 0; i < 20; i += 2) {
    const std::string key = "key" + std::to_string(i);
    storages_[0]->Put(key, "v2", storages_[0]->ContextFor(key), Ts(++ts));
  }
  sim_->RunFor(5 * kSecond);
  ASSERT_TRUE(ae_->Converged());
  std::vector<size_t> leaves(storages_[0]->merkle().leaf_count());
  std::iota(leaves.begin(), leaves.end(), size_t{0});
  const auto originals = storages_[0]->store().SiblingsInLeaves(leaves);
  ASSERT_EQ(originals.size(), 20u);
  std::vector<uint64_t> wal_bytes;
  for (int r = 0; r < 8; ++r) {
    const auto held = storages_[r]->store().SiblingsInLeaves(leaves);
    ASSERT_EQ(held.size(), originals.size()) << "replica " << r;
    for (size_t k = 0; k < held.size(); ++k) {
      EXPECT_EQ(held[k].siblings, originals[k].siblings)
          << "replica " << r << ", " << held[k].key;
    }
    wal_bytes.push_back(storages_[r]->wal()->size_bytes());
  }
  for (size_t r = 1; r < 8; ++r) EXPECT_FALSE(ae_->SyncPair(0, r));
  for (size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(storages_[r]->wal()->size_bytes(), wal_bytes[r])
        << "replica " << r;
  }
}

// Gossip ships keys leaf by leaf, so a receiver's WAL interleaves keys in
// leaf order, not key order; each key's own records keep their order.
// Recovery from that WAL must rebuild exactly the state gossip left.
TEST_F(AntiEntropyTest, LeafOrderGossipRecoversExactlyFromTheWal) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(5, options);
  ae_->Start();
  uint64_t ts = 0;
  for (int i = 0; i < 300; ++i) {
    // Writes at every replica: overwrites, and every third one blind, so
    // concurrent siblings meet mid-gossip.
    const auto r = static_cast<uint32_t>(i % 5);
    const std::string key = "key" + std::to_string(i % 80);
    const VersionVector context =
        i % 3 == 0 ? VersionVector() : storages_[r]->ContextFor(key);
    storages_[r]->Put(key, "v" + std::to_string(i), context, Ts(++ts, r));
    if (i % 25 == 24) sim_->RunFor(120 * kMillisecond);
  }
  sim_->RunFor(300 * kMillisecond);
  ASSERT_GT(ae_->stats().keys_shipped, 0u);
  for (int r = 0; r < 5; ++r) {
    ReplicaStorage& rs = *storages_[r];
    std::map<std::string, std::pair<std::vector<Version>, uint64_t>> before;
    rs.store().ForEachKey(
        [&](const std::string& key, const std::vector<Version>& siblings) {
          before[key] = {siblings, rs.store().KeyDigest(key)};
        });
    const uint64_t root = rs.merkle().RootDigest();
    ASSERT_TRUE(rs.CrashAndRecover().ok());
    EXPECT_EQ(rs.key_count(), before.size()) << "replica " << r;
    for (const auto& [key, state] : before) {
      EXPECT_EQ(rs.GetRaw(key), state.first) << "replica " << r << ", " << key;
      EXPECT_EQ(rs.store().KeyDigest(key), state.second)
          << "replica " << r << ", " << key;
    }
    EXPECT_EQ(rs.merkle().RootDigest(), root) << "replica " << r;
  }
}

TEST_F(AntiEntropyTest, GossipConvergesWithUpdatesAtEveryReplica) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(6, options);
  for (int r = 0; r < 6; ++r) {
    storages_[r]->Put("from" + std::to_string(r), "v", {},
                      Ts(1, static_cast<uint32_t>(r)));
  }
  ae_->Start();
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  EXPECT_EQ(storages_[3]->key_count(), 6u);
}

TEST_F(AntiEntropyTest, DownReplicaCatchesUpAfterRestart) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(4, options);
  net_->SetNodeUp(nodes_[3], false);
  storages_[0]->Put("k", "v", {}, Ts(1));
  ae_->Start();
  sim_->RunFor(2 * kSecond);
  EXPECT_TRUE(storages_[3]->Get("k").empty());  // down: no gossip received
  net_->SetNodeUp(nodes_[3], true);
  sim_->RunFor(3 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  EXPECT_FALSE(storages_[3]->Get("k").empty());
}

TEST_F(AntiEntropyTest, DepartedPeerSkippedInPeerDrawsAndConvergence) {
  // Satellite regression: gossip used to draw peers from the construction-
  // time node list forever, so a departed member kept being dialed (wasted
  // rounds against a node that left) and its frozen copy kept vetoing
  // Converged. Departed peers must be skipped in draws (counted in
  // ae.peer_skips), stop initiating rounds, and drop out of Converged.
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(4, options);
  ae_->MarkDeparted(nodes_[3]);
  storages_[0]->Put("k", "v", {}, Ts(1));
  ae_->Start();
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged()) << "departed replica still counted";
  EXPECT_TRUE(storages_[3]->Get("k").empty()) << "departed replica gossiped";
  EXPECT_GT(ae_->stats().peers_skipped, 0u);
}

TEST_F(AntiEntropyTest, LiveAddedMemberJoinsGossipAndConverges) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(3, options);
  storages_[0]->Put("k", "v", {}, Ts(1));
  ae_->Start();
  sim_->RunFor(kSecond);
  ReplicaStorage extra_storage(99, ReplicaStorageOptions{});
  const sim::NodeId extra = net_->AddNode();
  ae_->AddMember(extra, &extra_storage);
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  EXPECT_FALSE(extra_storage.Get("k").empty());
}

TEST_F(AntiEntropyTest, ConflictingSiblingsSpreadEverywhere) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(3, options);
  // Concurrent writes of the same key at two replicas.
  storages_[0]->Put("cart", "milk", {}, Ts(1, 0));
  storages_[1]->Put("cart", "eggs", {}, Ts(1, 1));
  ae_->Start();
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(storages_[r]->Get("cart").size(), 2u) << "replica " << r;
  }
}

TEST_F(AntiEntropyTest, PushOnlyStillConvergesButSlower) {
  // Push-pull moves data both directions per round; push-only needs the
  // reverse pairing to happen by chance. Both converge eventually.
  AntiEntropyOptions pp;
  pp.interval = 50 * kMillisecond;
  pp.push_pull = false;
  Build(4, pp);
  storages_[0]->Put("a", "1", {}, Ts(1, 0));
  storages_[3]->Put("b", "2", {}, Ts(1, 3));
  ae_->Start();
  sim_->RunFor(10 * kSecond);
  EXPECT_TRUE(ae_->Converged());
}

TEST_F(AntiEntropyTest, TombstonesPropagate) {
  AntiEntropyOptions options;
  options.interval = 50 * kMillisecond;
  Build(3, options);
  storages_[0]->Put("k", "v", {}, Ts(1));
  ae_->SyncPair(0, 1);
  ae_->SyncPair(0, 2);
  EXPECT_TRUE(ae_->Converged());
  storages_[1]->Delete("k", storages_[1]->ContextFor("k"), Ts(2, 1));
  ae_->Start();
  sim_->RunFor(5 * kSecond);
  EXPECT_TRUE(ae_->Converged());
  EXPECT_TRUE(storages_[0]->Get("k").empty());
  EXPECT_TRUE(storages_[2]->Get("k").empty());
}

TEST(AntiEntropyDeathTest, MembersWithDifferentMerkleDepthsAbort) {
  // Leaf digests and per-leaf key lists are compared index by index, so a
  // member with another depth would index past its peers' leaves.
  sim::Simulator sim(1);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(kMillisecond));
  const std::vector<sim::NodeId> nodes = {net.AddNode(), net.AddNode()};
  ReplicaStorageOptions deeper;
  deeper.merkle_depth = MerkleTree::kDefaultDepth + 2;
  ReplicaStorage a(0), b(1), odd(2, deeper);
  EXPECT_DEATH(AntiEntropy(&net, nodes, {&a, &odd}, AntiEntropyOptions{}),
               "EVC_CHECK failed");
  AntiEntropy ae(&net, nodes, {&a, &b}, AntiEntropyOptions{});
  EXPECT_DEATH(ae.AddMember(net.AddNode(), &odd), "EVC_CHECK failed");
}

// Property sweep: convergence holds across cluster sizes and fanouts.
class AntiEntropyConvergenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AntiEntropyConvergenceTest, AlwaysConverges) {
  const int replicas = std::get<0>(GetParam());
  const int fanout = std::get<1>(GetParam());
  sim::Simulator sim(static_cast<uint64_t>(replicas * 100 + fanout));
  sim::Network net(&sim,
                   std::make_unique<sim::UniformLatency>(kMillisecond,
                                                         10 * kMillisecond));
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<ReplicaStorage>> storages;
  std::vector<ReplicaStorage*> raw;
  for (int i = 0; i < replicas; ++i) {
    nodes.push_back(net.AddNode());
    storages.push_back(std::make_unique<ReplicaStorage>(
        static_cast<uint32_t>(i), ReplicaStorageOptions{}));
    raw.push_back(storages.back().get());
  }
  AntiEntropyOptions options;
  options.interval = 40 * kMillisecond;
  options.fanout = fanout;
  AntiEntropy ae(&net, nodes, raw, options);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const auto r = static_cast<uint32_t>(rng.NextBounded(replicas));
    storages[r]->Put("key" + std::to_string(i), "v", {},
                     LamportTimestamp{static_cast<uint64_t>(i + 1), r});
  }
  ae.Start();
  sim.RunFor(20 * kSecond);
  EXPECT_TRUE(ae.Converged())
      << "replicas=" << replicas << " fanout=" << fanout;
}

INSTANTIATE_TEST_SUITE_P(Shapes, AntiEntropyConvergenceTest,
                         ::testing::Combine(::testing::Values(2, 4, 16, 32),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace evc::repl

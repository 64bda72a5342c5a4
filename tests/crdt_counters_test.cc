#include "crdt/gcounter.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace evc::crdt {
namespace {

TEST(GCounterTest, StartsAtZero) {
  GCounter c;
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(c.entry_count(), 0u);
}

TEST(GCounterTest, IncrementAccumulates) {
  GCounter c;
  c.Increment(0);
  c.Increment(0, 4);
  c.Increment(1, 2);
  EXPECT_EQ(c.Value(), 7u);
  EXPECT_EQ(c.ShareOf(0), 5u);
  EXPECT_EQ(c.ShareOf(1), 2u);
  EXPECT_EQ(c.ShareOf(9), 0u);
}

TEST(GCounterTest, MergeTakesPointwiseMax) {
  GCounter a, b;
  a.Increment(0, 5);
  a.Increment(1, 1);
  b.Increment(1, 3);
  b.Increment(2, 2);
  a.Merge(b);
  EXPECT_EQ(a.Value(), 10u);  // 5 + 3 + 2
}

TEST(GCounterTest, MergeIsIdempotent) {
  GCounter a, b;
  a.Increment(0, 5);
  b.Increment(1, 3);
  a.Merge(b);
  const GCounter snapshot = a;
  a.Merge(b);
  a.Merge(b);
  EXPECT_EQ(a, snapshot);
}

TEST(GCounterTest, ConcurrentIncrementsAreNotLost) {
  // Unlike LWW on a plain integer, both replicas' increments survive merge.
  GCounter a, b;
  for (int i = 0; i < 10; ++i) a.Increment(0);
  for (int i = 0; i < 20; ++i) b.Increment(1);
  GCounter merged_ab = a;
  merged_ab.Merge(b);
  GCounter merged_ba = b;
  merged_ba.Merge(a);
  EXPECT_EQ(merged_ab.Value(), 30u);
  EXPECT_EQ(merged_ab, merged_ba);
}

TEST(GCounterTest, DeltaCarriesOnlyChangedEntry) {
  GCounter c;
  c.Increment(0, 3);
  const GCounter delta = c.Increment(1, 2);
  EXPECT_EQ(delta.entry_count(), 1u);
  EXPECT_EQ(delta.ShareOf(1), 2u);
  // Applying the delta to a fresh replica transfers exactly that share.
  GCounter peer;
  peer.Merge(delta);
  EXPECT_EQ(peer.Value(), 2u);
}

TEST(GCounterTest, DeltaStreamReconstructsFullState) {
  GCounter source, sink;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const GCounter delta = source.Increment(
        static_cast<uint32_t>(rng.NextBounded(4)), rng.NextBounded(5) + 1);
    sink.Merge(delta);
  }
  EXPECT_EQ(sink, source);
}

TEST(GCounterTest, IncludesDetectsStaleness) {
  GCounter a, b;
  a.Increment(0, 2);
  b.Merge(a);
  EXPECT_TRUE(b.Includes(a));
  a.Increment(0);
  EXPECT_FALSE(b.Includes(a));
  EXPECT_TRUE(a.Includes(b));
}

TEST(GCounterTest, StateBytesGrowsWithReplicas) {
  GCounter c;
  const size_t empty = c.StateBytes();
  c.Increment(0);
  c.Increment(1);
  c.Increment(2);
  EXPECT_GT(c.StateBytes(), empty);
}

class GCounterConvergenceTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(GCounterConvergenceTest, AllReplicasConvergeToTotalSum) {
  const int replica_count = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  std::vector<GCounter> replicas(replica_count);
  uint64_t expected_total = 0;
  for (int step = 0; step < 500; ++step) {
    const auto r = static_cast<uint32_t>(rng.NextBounded(replica_count));
    if (rng.NextBool(0.6)) {
      const uint64_t amount = rng.NextBounded(3) + 1;
      replicas[r].Increment(r, amount);
      expected_total += amount;
    } else {
      const auto peer = static_cast<uint32_t>(rng.NextBounded(replica_count));
      replicas[r].Merge(replicas[peer]);
    }
  }
  // Final all-pairs exchange.
  for (int round = 0; round < 2; ++round) {
    for (auto& a : replicas) {
      for (const auto& b : replicas) a.Merge(b);
    }
  }
  for (const auto& r : replicas) {
    EXPECT_EQ(r.Value(), expected_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GCounterConvergenceTest,
    ::testing::Combine(::testing::Values(2, 3, 8),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace evc::crdt

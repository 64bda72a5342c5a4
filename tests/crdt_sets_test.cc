#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "crdt/orset.h"

namespace evc::crdt {
namespace {

// ---------------------------------------------------------------------------
// Observed-remove sets. Every behavioural test runs against both the
// tombstoned OrSet and the optimized OrSwot via a small adapter, proving
// they implement the same semantics.
// ---------------------------------------------------------------------------

template <typename SetT>
struct OrSetAdapter {
  static SetT Make(uint32_t replica) { return SetT(replica); }
};

template <typename SetT>
class ObservedRemoveSetTest : public ::testing::Test {};

using OrSetImplementations = ::testing::Types<OrSet, OrSwot>;
TYPED_TEST_SUITE(ObservedRemoveSetTest, OrSetImplementations);

TYPED_TEST(ObservedRemoveSetTest, AddContainsRemove) {
  TypeParam s(0);
  s.Add("a");
  EXPECT_TRUE(s.Contains("a"));
  s.Remove("a");
  EXPECT_FALSE(s.Contains("a"));
  EXPECT_EQ(s.size(), 0u);
}

TYPED_TEST(ObservedRemoveSetTest, ReAddAfterRemoveWorks) {
  // Unlike 2P-set, OR-sets support re-adding.
  TypeParam s(0);
  s.Add("a");
  s.Remove("a");
  s.Add("a");
  EXPECT_TRUE(s.Contains("a"));
}

TYPED_TEST(ObservedRemoveSetTest, RemoveOfAbsentElementIsNoop) {
  TypeParam s(0);
  s.Remove("ghost");
  EXPECT_FALSE(s.Contains("ghost"));
  s.Add("ghost");
  EXPECT_TRUE(s.Contains("ghost"));
}

TYPED_TEST(ObservedRemoveSetTest, ConcurrentAddSurvivesRemove) {
  // The shopping-cart property: replica 0 removes the item while replica 1
  // concurrently adds it again; the add wins after merge.
  TypeParam a(0), b(1);
  a.Add("beer");
  b.Merge(a);
  a.Remove("beer");   // removes only the tag a observed
  b.Add("beer");      // concurrent new tag
  a.Merge(b);
  b.Merge(a);
  EXPECT_TRUE(a.Contains("beer"));
  EXPECT_TRUE(b.Contains("beer"));
}

TYPED_TEST(ObservedRemoveSetTest, ObservedRemoveDeletesEverywhere) {
  // A remove that observed every tag wins everywhere: no resurrection.
  TypeParam a(0), b(1);
  a.Add("item");
  b.Merge(a);
  b.Remove("item");  // b observed a's tag
  a.Merge(b);
  EXPECT_FALSE(a.Contains("item"));
  EXPECT_FALSE(b.Contains("item"));
}

TYPED_TEST(ObservedRemoveSetTest, MergeCommutative) {
  TypeParam a(0), b(1);
  a.Add("x");
  a.Add("y");
  a.Remove("y");
  b.Add("y");
  b.Add("z");
  TypeParam ab = a;
  ab.Merge(b);
  TypeParam ba = b;
  ba.Merge(a);
  auto ea = ab.Elements();
  auto eb = ba.Elements();
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  EXPECT_EQ(ea, eb);
}

TYPED_TEST(ObservedRemoveSetTest, MergeIdempotent) {
  TypeParam a(0), b(1);
  a.Add("x");
  b.Add("y");
  b.Remove("y");
  a.Merge(b);
  TypeParam snapshot = a;
  a.Merge(b);
  EXPECT_TRUE(a == snapshot);
}

TYPED_TEST(ObservedRemoveSetTest, ThreeReplicaGossipConverges) {
  Rng rng(42);
  const char* items[] = {"a", "b", "c", "d"};
  TypeParam replicas[3] = {TypeParam(0), TypeParam(1), TypeParam(2)};
  for (int step = 0; step < 400; ++step) {
    auto& r = replicas[rng.NextBounded(3)];
    const std::string item = items[rng.NextBounded(4)];
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      r.Add(item);
    } else if (dice < 0.7) {
      r.Remove(item);
    } else {
      r.Merge(replicas[rng.NextBounded(3)]);
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (auto& x : replicas) {
      for (const auto& y : replicas) x.Merge(y);
    }
  }
  EXPECT_TRUE(replicas[0] == replicas[1]);
  EXPECT_TRUE(replicas[1] == replicas[2]);
}

// --- implementation-specific state-size behaviour ---------------------------

TEST(OrSetStateTest, TombstonesAccumulateForever) {
  OrSet s(0);
  for (int i = 0; i < 100; ++i) {
    s.Add("churn");
    s.Remove("churn");
  }
  EXPECT_FALSE(s.Contains("churn"));
  EXPECT_EQ(s.tombstone_count(), 100u);  // state grows with remove traffic
}

TEST(OrSwotStateTest, RemovesFreeState) {
  OrSwot s(0);
  for (int i = 0; i < 100; ++i) {
    s.Add("churn");
    s.Remove("churn");
  }
  EXPECT_FALSE(s.Contains("churn"));
  EXPECT_EQ(s.live_dot_count(), 0u);
  // Context is a single compact entry for replica 0.
  EXPECT_EQ(s.context().size(), 1u);
  EXPECT_EQ(s.context().Get(0), 100u);
}

TEST(OrSwotStateTest, StateSmallerThanTombstonedAfterChurn) {
  OrSet tombstoned(0);
  OrSwot optimized(0);
  for (int i = 0; i < 500; ++i) {
    const std::string item = "item" + std::to_string(i % 10);
    tombstoned.Add(item);
    tombstoned.Remove(item);
    optimized.Add(item);
    optimized.Remove(item);
  }
  EXPECT_LT(optimized.StateBytes(), tombstoned.StateBytes() / 10);
}

TEST(OrSwotStateTest, SameCoordinatorReAddCoalescesDots) {
  OrSwot s(0);
  s.Add("x");
  s.Add("x");
  s.Add("x");
  EXPECT_EQ(s.live_dot_count(), 1u);  // newest dot supersedes observed ones
}

// Semantic equivalence under a randomized shared script.
class OrSetEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrSetEquivalenceTest, TombstonedAndOptimizedAgree) {
  Rng rng(GetParam());
  OrSet ts[2] = {OrSet(0), OrSet(1)};
  OrSwot opt[2] = {OrSwot(0), OrSwot(1)};
  const char* items[] = {"p", "q", "r"};
  for (int step = 0; step < 300; ++step) {
    const uint32_t r = static_cast<uint32_t>(rng.NextBounded(2));
    const std::string item = items[rng.NextBounded(3)];
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      ts[r].Add(item);
      opt[r].Add(item);
    } else if (dice < 0.7) {
      ts[r].Remove(item);
      opt[r].Remove(item);
    } else {
      const uint32_t peer = static_cast<uint32_t>(rng.NextBounded(2));
      ts[r].Merge(ts[peer]);
      opt[r].Merge(opt[peer]);
    }
    // Observable state must match at every step, on every replica.
    for (int i = 0; i < 2; ++i) {
      auto a = ts[i].Elements();
      auto b = opt[i].Elements();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "step " << step << " replica " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrSetEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace evc::crdt

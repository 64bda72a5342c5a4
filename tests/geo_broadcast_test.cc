#include "crdt/geo_broadcast.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crdt/op_crdts.h"

namespace evc::crdt {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class GeoBroadcastTest : public ::testing::Test {
 protected:
  void Build(int members, bool causal, uint64_t seed = 9,
             double jitter = 1.0) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs(), jitter);
    auto* wan = latency.get();
    net_ = std::make_unique<sim::Network>(sim_.get(), std::move(latency));
    GeoBroadcastOptions options;
    options.causal = causal;
    gb_ = std::make_unique<GeoBroadcast>(net_.get(), options);
    for (int i = 0; i < members; ++i) {
      const sim::NodeId node = net_->AddNode();
      wan->AssignNode(node, i % 3);
      nodes_.push_back(node);
      sets_.emplace_back(static_cast<uint32_t>(i));
    }
    for (int i = 0; i < members; ++i) {
      gb_->AddMember(nodes_[i], [this, i](uint32_t, const sim::Payload& op) {
        sets_[i].Apply(op.Peek<OpOrSet::Op>());
      });
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<GeoBroadcast> gb_;
  std::vector<sim::NodeId> nodes_;
  std::vector<OpOrSet> sets_;
};

TEST_F(GeoBroadcastTest, SingleOpReachesEveryone) {
  Build(3, /*causal=*/true);
  gb_->Publish(0, sets_[0].MakeAdd("x"));
  sim_->RunFor(2 * kSecond);
  for (const auto& s : sets_) EXPECT_TRUE(s.Contains("x"));
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(gb_->delivered_at(i), 1u);
}

TEST_F(GeoBroadcastTest, CausalDeliveryPreventsZombieElements) {
  // The zombie anomaly: origin adds x then removes it (remove observed the
  // add). Without causal order a replica can apply the remove first (no-op)
  // and then the add — x resurrects there forever. With causal order every
  // replica ends with x absent.
  Build(3, /*causal=*/true);
  for (int round = 0; round < 50; ++round) {
    const std::string item = "item" + std::to_string(round);
    gb_->Publish(0, sets_[0].MakeAdd(item));
    gb_->Publish(0, sets_[0].MakeRemove(item));
  }
  sim_->RunFor(5 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sets_[i].size(), 0u) << "replica " << i;
    EXPECT_EQ(gb_->PendingAt(i), 0u);
  }
}

TEST_F(GeoBroadcastTest, WithoutCausalDeliveryZombiesAppear) {
  // Same script, causal off, heavy jitter: at least one add overtakes its
  // remove somewhere and leaves a permanent zombie. Every op still arrives
  // exactly once, so the zombies are reordered removes, not lost ones.
  Build(3, /*causal=*/false, /*seed=*/4, /*jitter=*/3.0);
  for (int round = 0; round < 50; ++round) {
    const std::string item = "item" + std::to_string(round);
    gb_->Publish(0, sets_[0].MakeAdd(item));
    gb_->Publish(0, sets_[0].MakeRemove(item));
  }
  sim_->RunFor(10 * kSecond);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(gb_->delivered_at(i), 100u);
  size_t zombies = sets_[1].size() + sets_[2].size();
  EXPECT_GT(zombies, 0u) << "expected at least one resurrected element";
  EXPECT_EQ(sets_[0].size(), 0u);  // the origin is always clean
}

TEST_F(GeoBroadcastTest, CrossOriginCausalityRespected) {
  // Member 0 adds; member 1 (after delivering the add) removes; member 2
  // must apply them in that order even if the remove's message wins the
  // race.
  Build(3, /*causal=*/true, /*seed=*/12, /*jitter=*/2.0);
  for (int round = 0; round < 30; ++round) {
    const std::string item = "it" + std::to_string(round);
    gb_->Publish(0, sets_[0].MakeAdd(item));
    // Wait until member 1 has the element, then remove from there.
    while (!sets_[1].Contains(item) && sim_->Step()) {
    }
    ASSERT_TRUE(sets_[1].Contains(item));
    gb_->Publish(1, sets_[1].MakeRemove(item));
  }
  sim_->RunFor(10 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sets_[i].size(), 0u) << "replica " << i;
  }
}

TEST_F(GeoBroadcastTest, ConcurrentOriginsConverge) {
  Build(3, /*causal=*/true, /*seed=*/21);
  Rng rng(5);
  const char* items[] = {"a", "b", "c"};
  for (int step = 0; step < 120; ++step) {
    const uint32_t origin = static_cast<uint32_t>(rng.NextBounded(3));
    const std::string item = items[rng.NextBounded(3)];
    if (rng.NextBool(0.6)) {
      gb_->Publish(origin, sets_[origin].MakeAdd(item));
    } else {
      gb_->Publish(origin, sets_[origin].MakeRemove(item));
    }
    if (rng.NextBool(0.3)) sim_->RunFor(20 * kMillisecond);
  }
  sim_->RunFor(10 * kSecond);
  EXPECT_TRUE(sets_[0] == sets_[1]);
  EXPECT_TRUE(sets_[1] == sets_[2]);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(gb_->delivered_at(i), 120u);
    EXPECT_EQ(gb_->PendingAt(i), 0u);
  }
}

TEST_F(GeoBroadcastTest, DuplicatedMessagesDeliveredOnce) {
  Build(2, /*causal=*/true, /*seed=*/31, /*jitter=*/0.05);
  net_->set_duplicate_rate(1.0);  // every message duplicated
  for (int i = 0; i < 10; ++i) {
    gb_->Publish(0, sets_[0].MakeAdd("k" + std::to_string(i)));
  }
  sim_->RunFor(5 * kSecond);
  EXPECT_EQ(gb_->delivered_at(1), 10u);  // not 20
  EXPECT_EQ(sets_[1].size(), 10u);
  EXPECT_TRUE(sets_[0] == sets_[1]);
}

}  // namespace
}  // namespace evc::crdt

#include "sim/nemesis.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/latency.h"

namespace evc::sim {
namespace {

class NemesisTest : public ::testing::Test {
 protected:
  NemesisTest()
      : sim_(7), net_(&sim_, std::make_unique<ConstantLatency>(kMillisecond)) {
    for (int i = 0; i < 5; ++i) servers_.push_back(net_.AddNode());
    client_ = net_.AddNode();
  }

  bool FullyConnected() {
    for (size_t i = 0; i < servers_.size(); ++i) {
      for (size_t j = 0; j < servers_.size(); ++j) {
        if (!net_.CanCommunicate(servers_[i], servers_[j])) return false;
      }
      if (!net_.CanCommunicate(client_, servers_[i])) return false;
    }
    return true;
  }

  Simulator sim_;
  Network net_;
  std::vector<NodeId> servers_;
  NodeId client_ = 0;
};

TEST_F(NemesisTest, FaultPlanBuilderOrdersActions) {
  FaultPlan plan;
  plan.HealAt(5 * kSecond)
      .PartitionAt(1 * kSecond, {{0, 1}, {2}})
      .CrashAt(2 * kSecond, 3);
  EXPECT_EQ(plan.size(), 3u);
  // ToString is time-sorted even though actions were pushed out of order.
  const std::string s = plan.ToString();
  const size_t partition_pos = s.find("partition");
  const size_t crash_pos = s.find("crash");
  const size_t heal_pos = s.find("heal");
  ASSERT_NE(partition_pos, std::string::npos);
  ASSERT_NE(crash_pos, std::string::npos);
  ASSERT_NE(heal_pos, std::string::npos);
  EXPECT_LT(partition_pos, crash_pos);
  EXPECT_LT(crash_pos, heal_pos);
}

TEST_F(NemesisTest, ExecutesExplicitPartitionAndHeal) {
  Nemesis nemesis(&net_, servers_, 1);
  FaultPlan plan;
  plan.PartitionAt(1 * kSecond, {{servers_[3], servers_[4]}})
      .HealAt(3 * kSecond);
  nemesis.Execute(plan);

  sim_.RunFor(2 * kSecond);  // partition active
  EXPECT_FALSE(net_.CanCommunicate(servers_[0], servers_[3]));
  EXPECT_TRUE(net_.CanCommunicate(servers_[3], servers_[4]));
  // Unlisted nodes (the client) stay with the implicit group 0 majority.
  EXPECT_TRUE(net_.CanCommunicate(client_, servers_[0]));
  EXPECT_FALSE(net_.CanCommunicate(client_, servers_[3]));

  sim_.RunFor(2 * kSecond);  // healed
  EXPECT_TRUE(FullyConnected());
  EXPECT_EQ(nemesis.stats().partitions, 1u);
  EXPECT_EQ(nemesis.stats().heals, 1u);
}

TEST_F(NemesisTest, ExecutesCrashAndRestart) {
  Nemesis nemesis(&net_, servers_, 1);
  FaultPlan plan;
  plan.CrashAt(1 * kSecond, servers_[2]).RestartAt(2 * kSecond, servers_[2]);
  nemesis.Execute(plan);

  sim_.RunFor(1500 * kMillisecond);
  EXPECT_FALSE(net_.IsNodeUp(servers_[2]));
  sim_.RunFor(1 * kSecond);
  EXPECT_TRUE(net_.IsNodeUp(servers_[2]));
  EXPECT_EQ(nemesis.stats().crashes, 1u);
  EXPECT_EQ(nemesis.stats().restarts, 1u);
}

TEST_F(NemesisTest, GeneratedPlanIsDeterministicInSeed) {
  Nemesis a(&net_, servers_, 42);
  Nemesis b(&net_, servers_, 42);
  Nemesis c(&net_, servers_, 43);
  NemesisScheduleOptions options;
  const FaultPlan pa = a.GeneratePlan(options);
  const FaultPlan pb = b.GeneratePlan(options);
  const FaultPlan pc = c.GeneratePlan(options);
  EXPECT_EQ(pa.ToString(), pb.ToString());
  EXPECT_NE(pa.ToString(), pc.ToString());
  EXPECT_FALSE(pa.empty());
}

TEST_F(NemesisTest, GeneratedPlanRespectsFamilyToggles) {
  Nemesis nemesis(&net_, servers_, 9);
  NemesisScheduleOptions options;
  options.allow_partitions = false;
  options.allow_crashes = false;
  options.allow_duplication = false;
  options.heal_at_end = true;
  const FaultPlan plan = nemesis.GeneratePlan(options);
  for (const FaultAction& action : plan.actions()) {
    EXPECT_TRUE(action.kind == FaultAction::Kind::kLossRate ||
                action.kind == FaultAction::Kind::kHealAll)
        << action.ToString();
  }
}

TEST_F(NemesisTest, UnleashEndsHealedWithAllTargetsUp) {
  Nemesis nemesis(&net_, servers_, 1234);
  NemesisScheduleOptions options;
  options.duration = 10 * kSecond;
  nemesis.Unleash(options);
  sim_.RunFor(options.duration + kSecond);
  EXPECT_TRUE(nemesis.AllTargetsUp());
  EXPECT_TRUE(FullyConnected());
  EXPECT_GT(nemesis.stats().total(), 0u);
}

TEST_F(NemesisTest, HealAllUndoesEverythingImmediately) {
  Nemesis nemesis(&net_, servers_, 77);
  NemesisScheduleOptions options;
  options.duration = 30 * kSecond;
  options.mean_fault_interval = 300 * kMillisecond;
  options.heal_at_end = false;
  nemesis.Unleash(options);
  sim_.RunFor(10 * kSecond);  // mid-schedule, faults likely active
  nemesis.HealAll();
  EXPECT_TRUE(nemesis.AllTargetsUp());
  EXPECT_TRUE(FullyConnected());
}

TEST_F(NemesisTest, CrashCapKeepsMajorityAlive) {
  // With max_concurrent_crashes=2 of 5 targets, at least 3 must stay up at
  // every instant of any generated schedule.
  Nemesis nemesis(&net_, servers_, 555);
  NemesisScheduleOptions options;
  options.duration = 30 * kSecond;
  options.mean_fault_interval = 400 * kMillisecond;
  options.allow_partitions = false;
  options.allow_loss = false;
  options.allow_duplication = false;
  options.max_concurrent_crashes = 2;
  nemesis.Unleash(options);
  for (int step = 0; step < 300; ++step) {
    sim_.RunFor(100 * kMillisecond);
    int up = 0;
    for (NodeId server : servers_) up += net_.IsNodeUp(server) ? 1 : 0;
    ASSERT_GE(up, 3) << "at t=" << sim_.Now();
  }
}

TEST_F(NemesisTest, GrayFaultsApplyAndRecover) {
  Nemesis nemesis(&net_, servers_, 21);
  FaultPlan plan;
  plan.SlowLinkAt(kSecond, servers_[0], servers_[1], 4.0)
      .FlakyLinkAt(kSecond, servers_[1], servers_[2], 0.5)
      .SlowNodeAt(kSecond, servers_[3], 20 * kMillisecond)
      .GrayRecoverAt(5 * kSecond)
      .GrayRecoverAt(5 * kSecond)
      .GrayRecoverAt(5 * kSecond);
  nemesis.Execute(plan);

  sim_.RunFor(2 * kSecond);
  EXPECT_EQ(nemesis.active_gray_faults(), 3u);
  EXPECT_DOUBLE_EQ(net_.LinkLatencyFactor(servers_[0], servers_[1]), 4.0);
  EXPECT_DOUBLE_EQ(net_.LinkDropRate(servers_[1], servers_[2]), 0.5);
  EXPECT_EQ(net_.NodeProcessingDelay(servers_[3]), 20 * kMillisecond);
  EXPECT_TRUE(net_.HasGrayFaults());
  // Gray failures are invisible to the oracle: everyone "can communicate".
  EXPECT_TRUE(FullyConnected());

  sim_.RunFor(4 * kSecond);  // past the recoveries
  EXPECT_EQ(nemesis.active_gray_faults(), 0u);
  EXPECT_FALSE(net_.HasGrayFaults());
  EXPECT_EQ(nemesis.stats().gray_faults, 3u);
  EXPECT_EQ(nemesis.stats().gray_recoveries, 3u);
}

TEST_F(NemesisTest, HealAllClearsActiveGrayFaults) {
  Nemesis nemesis(&net_, servers_, 22);
  FaultPlan plan;
  plan.SlowNodeAt(kSecond, servers_[0], 10 * kMillisecond)
      .FlakyLinkAt(kSecond, servers_[1], servers_[2], 0.9);
  nemesis.Execute(plan);
  sim_.RunFor(2 * kSecond);
  ASSERT_TRUE(net_.HasGrayFaults());
  nemesis.HealAll();
  EXPECT_FALSE(net_.HasGrayFaults());
  EXPECT_EQ(nemesis.active_gray_faults(), 0u);
}

TEST_F(NemesisTest, GeneratedGrayScheduleDrawsAndRecoversGrayFaults) {
  Nemesis nemesis(&net_, servers_, 23);
  NemesisScheduleOptions options;
  options.duration = 30 * kSecond;
  options.mean_fault_interval = 500 * kMillisecond;
  options.allow_partitions = false;
  options.allow_crashes = false;
  options.allow_loss = false;
  options.allow_duplication = false;
  options.allow_slow_links = true;
  options.allow_flaky_links = true;
  options.allow_slow_nodes = true;
  nemesis.Unleash(options);
  sim_.RunFor(40 * kSecond);  // includes the final heal
  EXPECT_GT(nemesis.stats().gray_faults, 0u);
  EXPECT_EQ(nemesis.stats().gray_recoveries, nemesis.stats().gray_faults);
  EXPECT_FALSE(net_.HasGrayFaults());
}

TEST_F(NemesisTest, GrayTogglesOffPreserveHistoricalSchedules) {
  // The gray families are appended to the draw table only when enabled, so
  // a schedule generated with the defaults is bit-identical to one from a
  // pre-gray Nemesis with the same seed.
  Nemesis with_defaults(&net_, servers_, 77);
  Nemesis again(&net_, servers_, 77);
  NemesisScheduleOptions options;
  const std::string a = with_defaults.GeneratePlan(options).ToString();
  const std::string b = again.GeneratePlan(options).ToString();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("slow-link"), std::string::npos);
  EXPECT_EQ(a.find("flaky-link"), std::string::npos);
  EXPECT_EQ(a.find("slow-node"), std::string::npos);
}

TEST_F(NemesisTest, LogRecordsResolvedActions) {
  Nemesis nemesis(&net_, servers_, 31);
  FaultPlan plan;
  plan.PartitionAt(kSecond, PartitionStyle::kIsolateOne)
      .HealAt(2 * kSecond);
  nemesis.Execute(plan);
  sim_.RunFor(3 * kSecond);
  ASSERT_GE(nemesis.log().size(), 2u);
  // The randomized action appears with its resolved victim, not a template.
  EXPECT_NE(nemesis.log()[0].find("partition"), std::string::npos);
}

}  // namespace
}  // namespace evc::sim

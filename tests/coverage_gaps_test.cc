// Edge cases not covered by the per-module suites: error paths, fallback
// branches, and cross-module corners.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "sla/pileus.h"
#include "txn/redblue.h"
#include "workload/workload.h"

namespace evc {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(RedBlueEdgeTest, BlueWithdrawAbortsOnLocalInsufficientFunds) {
  sim::Simulator sim(3);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * kMillisecond));
  sim::Rpc rpc(&net);
  txn::RedBlueBank bank(&rpc, 2);
  const sim::NodeId client = net.AddNode();
  std::optional<Status> status;
  bank.WithdrawBlue(client, 0, "empty", 10,
                    [&](Result<int64_t> r) { status = r.status(); });
  sim.RunFor(kSecond);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->IsAborted());
  EXPECT_EQ(bank.stats().invariant_violations, 0u);
}

TEST(RedBlueEdgeTest, RedWithdrawOnUnknownAccountAborts) {
  sim::Simulator sim(4);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * kMillisecond));
  sim::Rpc rpc(&net);
  txn::RedBlueBank bank(&rpc, 2);
  const sim::NodeId client = net.AddNode();
  std::optional<Status> status;
  bank.WithdrawRed(client, 1, "ghost", 1,
                   [&](Result<int64_t> r) { status = r.status(); });
  sim.RunFor(2 * kSecond);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->IsAborted());
  EXPECT_EQ(bank.stats().red_aborts, 1u);
}

TEST(PileusEdgeTest, GetBeforeProbeFallsBackToLastRow) {
  sim::Simulator sim(5);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  sla::PileusCluster cluster(&rpc, sla::PileusOptions{});
  const sim::NodeId primary = cluster.AddPrimary();
  wan->AssignNode(primary, 0);
  cluster.Start();
  const sim::NodeId writer = net.AddNode();
  wan->AssignNode(writer, 0);
  bool seeded = false;
  cluster.Put(writer, "k", "v", [&](Result<uint64_t> r) { seeded = r.ok(); });
  sim.RunFor(kSecond);
  ASSERT_TRUE(seeded);

  const sim::NodeId user = net.AddNode();
  wan->AssignNode(user, 1);
  sla::PileusClient client(&cluster, &sim, user,
                           sla::Sla{{kSecond, sla::ReadConsistency::kEventual,
                                     0, 0.2}});
  // No Probe: monitors are empty; the client must still serve the read by
  // falling back to the primary.
  std::optional<sla::SlaReadResult> read;
  client.Get("k", [&](Result<sla::SlaReadResult> r) {
    if (r.ok()) read = *r;
  });
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->found);
  EXPECT_EQ(read->value, "v");
}

TEST(SlaEdgeTest, ConsistencyNamesAreStable) {
  EXPECT_STREQ(sla::ReadConsistencyToString(sla::ReadConsistency::kStrong),
               "strong");
  EXPECT_STREQ(sla::ReadConsistencyToString(sla::ReadConsistency::kBounded),
               "bounded");
  EXPECT_STREQ(sla::ReadConsistencyToString(sla::ReadConsistency::kEventual),
               "eventual");
}

}  // namespace
}  // namespace evc

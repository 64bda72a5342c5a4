#include "consensus/paxos.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

namespace evc::consensus {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class PaxosTest : public ::testing::Test {
 protected:
  void Build(int servers = 3, uint64_t seed = 5,
             sim::Time latency_lo = 2 * kMillisecond,
             sim::Time latency_hi = 10 * kMillisecond) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<sim::Network>(
        sim_.get(),
        std::make_unique<sim::UniformLatency>(latency_lo, latency_hi));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    cluster_ = std::make_unique<PaxosCluster>(rpc_.get(), PaxosOptions{});
    servers_ = cluster_->AddServers(servers);
    client_node_ = net_->AddNode();
    client_ = std::make_unique<PaxosKvClient>(cluster_.get(), sim_.get(),
                                              client_node_, servers_);
    cluster_->Start();
    sim_->RunFor(kSecond);  // let a leader emerge
  }

  Result<uint64_t> PutSync(const std::string& key, const std::string& value,
                           sim::Time budget = 10 * kSecond) {
    std::optional<Result<uint64_t>> out;
    client_->Put(key, value, [&](Result<uint64_t> r) { out = std::move(r); });
    sim_->RunFor(budget);
    EVC_CHECK(out.has_value());
    return *out;
  }

  Result<std::string> GetSync(const std::string& key,
                              sim::Time budget = 10 * kSecond) {
    std::optional<Result<std::string>> out;
    client_->Get(key, [&](Result<std::string> r) { out = std::move(r); });
    sim_->RunFor(budget);
    EVC_CHECK(out.has_value());
    return *out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<PaxosCluster> cluster_;
  std::vector<sim::NodeId> servers_;
  sim::NodeId client_node_ = 0;
  std::unique_ptr<PaxosKvClient> client_;
};

TEST_F(PaxosTest, ElectsALeader) {
  Build();
  EXPECT_TRUE(cluster_->CurrentLeader().has_value());
  EXPECT_GE(cluster_->stats().leaderships_won, 1u);
}

TEST_F(PaxosTest, PutThenGetLinearizable) {
  Build();
  auto put = PutSync("k", "v1");
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  auto get = GetSync("k");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "v1");
  // Overwrite and read again: must see the newest value.
  ASSERT_TRUE(PutSync("k", "v2").ok());
  auto get2 = GetSync("k");
  ASSERT_TRUE(get2.ok());
  EXPECT_EQ(*get2, "v2");
}

TEST_F(PaxosTest, GetMissingIsNotFound) {
  Build();
  auto get = GetSync("missing");
  EXPECT_TRUE(get.status().IsNotFound());
}

TEST_F(PaxosTest, AllReplicasApplyIdenticalLog) {
  Build();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync("key" + std::to_string(i % 3),
                        "value" + std::to_string(i))
                    .ok());
  }
  sim_->RunFor(2 * kSecond);  // learn/catch-up drain
  // Every chosen slot must agree across servers.
  const uint64_t applied0 = cluster_->AppliedIndex(servers_[0]);
  EXPECT_GE(applied0, 10u);
  for (uint64_t slot = 0; slot < applied0; ++slot) {
    auto v0 = cluster_->ChosenAt(servers_[0], slot);
    ASSERT_TRUE(v0.has_value());
    for (size_t s = 1; s < servers_.size(); ++s) {
      auto vs = cluster_->ChosenAt(servers_[s], slot);
      if (vs.has_value()) {
        EXPECT_EQ(*vs, *v0) << "slot " << slot << " server " << s;
      }
    }
  }
  // And the applied KV state converges.
  for (int i = 0; i < 3; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto v0 = cluster_->AppliedValue(servers_[0], key);
    ASSERT_TRUE(v0.has_value());
    for (size_t s = 1; s < servers_.size(); ++s) {
      EXPECT_EQ(cluster_->AppliedValue(servers_[s], key), v0);
    }
  }
}

TEST_F(PaxosTest, LeaderCrashTriggersFailover) {
  Build();
  ASSERT_TRUE(PutSync("stable", "before-crash").ok());
  const auto old_leader = cluster_->CurrentLeader();
  ASSERT_TRUE(old_leader.has_value());
  net_->SetNodeUp(*old_leader, false);
  sim_->RunFor(3 * kSecond);  // elections
  const auto new_leader = cluster_->CurrentLeader();
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_NE(*new_leader, *old_leader);
  // Committed data survives, and new writes work.
  auto get = GetSync("stable");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(*get, "before-crash");
  ASSERT_TRUE(PutSync("fresh", "after-crash").ok());
  auto get2 = GetSync("fresh");
  ASSERT_TRUE(get2.ok());
  EXPECT_EQ(*get2, "after-crash");
}

TEST_F(PaxosTest, MinorityPartitionCannotCommit) {
  Build(5);
  ASSERT_TRUE(PutSync("k", "v0").ok());
  const auto leader = cluster_->CurrentLeader();
  ASSERT_TRUE(leader.has_value());
  // Isolate the leader with one follower (minority of 2); keep the client
  // with the majority side.
  std::vector<sim::NodeId> minority = {*leader};
  std::vector<sim::NodeId> majority = {client_node_};
  for (const sim::NodeId s : servers_) {
    if (s == *leader) continue;
    if (minority.size() < 2) {
      minority.push_back(s);
    } else {
      majority.push_back(s);
    }
  }
  net_->Partition({minority, majority});
  sim_->RunFor(3 * kSecond);  // majority elects a new leader
  // Client (majority side) can still write.
  auto put = PutSync("k", "v1", 15 * kSecond);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  auto get = GetSync("k");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "v1");
  // Minority-side servers never applied the new write.
  for (const sim::NodeId s : minority) {
    auto v = cluster_->AppliedValue(s, "k");
    EXPECT_TRUE(!v.has_value() || *v == "v0");
  }
  // Heal: minority catches up to the majority's log.
  net_->Heal();
  sim_->RunFor(5 * kSecond);
  for (const sim::NodeId s : minority) {
    EXPECT_EQ(cluster_->AppliedValue(s, "k"),
              std::optional<std::string>("v1"));
  }
}

TEST_F(PaxosTest, ProgressUnderMessageLoss) {
  Build(3, /*seed=*/9);
  net_->set_loss_rate(0.10);
  int succeeded = 0;
  for (int i = 0; i < 10; ++i) {
    auto put = PutSync("key" + std::to_string(i), "v", 20 * kSecond);
    if (put.ok()) ++succeeded;
  }
  EXPECT_GE(succeeded, 8);  // client retries ride out most loss
  net_->set_loss_rate(0.0);
  auto get = GetSync("key0");
  EXPECT_TRUE(get.ok() || get.status().IsNotFound());
}

TEST_F(PaxosTest, DuplicatedMessagesAreHarmless) {
  Build(3, /*seed=*/13);
  net_->set_duplicate_rate(0.3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync("k", "v" + std::to_string(i)).ok());
  }
  auto get = GetSync("k");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "v9");
}

TEST_F(PaxosTest, FollowerRestartCatchesUpViaHeartbeat) {
  Build();
  // Crash a follower, commit entries, restart it.
  const auto leader = cluster_->CurrentLeader();
  ASSERT_TRUE(leader.has_value());
  sim::NodeId follower = 0;
  for (const sim::NodeId s : servers_) {
    if (s != *leader) {
      follower = s;
      break;
    }
  }
  net_->SetNodeUp(follower, false);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(PutSync("k" + std::to_string(i), "v").ok());
  }
  net_->SetNodeUp(follower, true);
  sim_->RunFor(5 * kSecond);  // heartbeat-driven catch-up
  EXPECT_GE(cluster_->AppliedIndex(follower), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster_->AppliedValue(follower, "k" + std::to_string(i)),
              std::optional<std::string>("v"));
  }
  EXPECT_GE(cluster_->stats().catchups, 1u);
}

// Checkpoints drop only the slots every member has applied: a partitioned
// follower holds the group floor, so the others keep serving every slot it
// still lacks, it catches up from their logs after the heal, and only then
// can slot 0 go.
TEST_F(PaxosTest, PartitionedFollowerHoldsTheLogFloor) {
  Build(5);
  auto put = [this](int i) {
    std::string value = std::to_string(i);
    value.resize(1024, '.');
    return PutSync("k" + std::to_string(i % 10), value, 500 * kMillisecond);
  };
  auto checkpoints = [this] {
    return sim_->metrics().global().CounterFor("wal.checkpoints").value();
  };
  int next = 0;
  for (; next < 20; ++next) ASSERT_TRUE(put(next).ok());
  sim_->RunFor(kSecond);
  const auto leader = cluster_->CurrentLeader();
  ASSERT_TRUE(leader.has_value());
  const sim::NodeId follower = servers_[0] == *leader ? servers_[1]
                                                      : servers_[0];
  const uint64_t follower_applied = cluster_->AppliedIndex(follower);
  ASSERT_GT(follower_applied, 0u);

  net_->Partition({{follower}});
  for (; next < 220; ++next) ASSERT_TRUE(put(next).ok()) << next;
  sim_->RunFor(kSecond);
  EXPECT_GE(checkpoints(), 4u * 3);  // several on each server in the majority
  EXPECT_EQ(cluster_->AppliedIndex(follower), follower_applied);
  for (const sim::NodeId s : servers_) {
    if (s == follower) continue;
    for (uint64_t slot = follower_applied; slot < cluster_->AppliedIndex(s);
         ++slot) {
      ASSERT_TRUE(cluster_->ChosenAt(s, slot).has_value())
          << "server " << s << " dropped slot " << slot;
    }
  }

  net_->Heal();
  sim_->RunFor(5 * kSecond);  // heartbeat-driven catch-up
  const uint64_t applied = cluster_->AppliedIndex(*leader);
  for (const sim::NodeId s : servers_) {
    EXPECT_EQ(cluster_->AppliedIndex(s), applied) << "server " << s;
    for (int k = 0; k < 10; ++k) {
      const std::string key = "k" + std::to_string(k);
      EXPECT_EQ(cluster_->AppliedValue(s, key),
                cluster_->AppliedValue(*leader, key))
          << "server " << s << " key " << key;
    }
  }

  // With the follower caught up the floor moves, and the next checkpoint
  // on each server drops the start of the log. The follower's partitioned
  // campaigns raised its promise, so the first accept after the heal
  // deposes the leader: puts fail until the next election settles.
  int failed = 0;
  for (int acked = 0; acked < 220; ++next) {
    if (put(next).ok()) {
      ++acked;
    } else {
      ASSERT_LT(++failed, 20) << next;
    }
  }
  sim_->RunFor(kSecond);
  for (const sim::NodeId s : servers_) {
    EXPECT_FALSE(cluster_->ChosenAt(s, 0).has_value()) << "server " << s;
  }
  EXPECT_GT(sim_->metrics().global().CounterFor("paxos.slots_dropped").value(),
            0u);
}

// Safety under chaos: random crashes, partitions, loss — after healing, all
// servers agree on every chosen slot (divergence would also trip the
// EVC_CHECK inside OnChosen and abort).
class PaxosChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosChaosTest, NoDivergenceUnderChaos) {
  const uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 15 * kMillisecond));
  sim::Rpc rpc(&net);
  PaxosCluster cluster(&rpc, PaxosOptions{});
  auto servers = cluster.AddServers(5);
  const sim::NodeId client_node = net.AddNode();
  PaxosKvClient client(&cluster, &sim, client_node, servers);
  cluster.Start();
  sim.RunFor(kSecond);

  Rng rng(seed * 777 + 1);
  int ok_count = 0;
  for (int round = 0; round < 15; ++round) {
    // Random fault injection.
    const double dice = rng.NextDouble();
    if (dice < 0.25) {
      const sim::NodeId victim = servers[rng.NextBounded(5)];
      net.SetNodeUp(victim, false);
    } else if (dice < 0.4) {
      for (const sim::NodeId s : servers) net.SetNodeUp(s, true);
      net.Heal();
    } else if (dice < 0.55) {
      // Partition two random servers away from the rest (client stays with
      // the majority side).
      const size_t x = rng.NextBounded(5);
      size_t y = rng.NextBounded(5);
      if (y == x) y = (y + 1) % 5;
      std::vector<sim::NodeId> minority = {servers[x], servers[y]};
      std::vector<sim::NodeId> majority = {client_node};
      for (const sim::NodeId s : servers) {
        if (s != servers[x] && s != servers[y]) majority.push_back(s);
      }
      net.Partition({minority, majority});
    }
    // Issue a write. The result slot is shared-owned: with retries the
    // callback can fire after this round's 8-second window has passed.
    auto put = std::make_shared<std::optional<Result<uint64_t>>>();
    client.Put("chaos", "v" + std::to_string(round),
               [put](Result<uint64_t> r) { *put = std::move(r); });
    sim.RunFor(8 * kSecond);
    if (put->has_value() && (*put)->ok()) ++ok_count;
  }
  // Heal everything and drain.
  for (const sim::NodeId s : servers) net.SetNodeUp(s, true);
  net.Heal();
  sim.RunFor(10 * kSecond);

  // Every chosen slot agrees across all servers.
  uint64_t max_applied = 0;
  for (const sim::NodeId s : servers) {
    max_applied = std::max(max_applied, cluster.AppliedIndex(s));
  }
  EXPECT_GT(max_applied, 0u);
  for (uint64_t slot = 0; slot < max_applied; ++slot) {
    std::optional<std::string> agreed;
    for (const sim::NodeId s : servers) {
      auto v = cluster.ChosenAt(s, slot);
      if (!v.has_value()) continue;
      if (!agreed.has_value()) {
        agreed = v;
      } else {
        EXPECT_EQ(*v, *agreed) << "divergence at slot " << slot;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace evc::consensus

// Membership epochs end to end: view codec, Paxos-backed epoch claims, and
// the elastic DynamoCluster lifecycle (live join with key migration, live
// removal, epoch fences on stale coordinators, hint redirection off departed
// nodes). The reconfiguration protocol itself is documented in DESIGN.md
// §4.4; these tests pin its observable contract.

#include "membership/config_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/paxos.h"
#include "membership/view.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "sim/simulator.h"

namespace evc::membership {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(MembershipViewTest, EncodeDecodeRoundTrip) {
  MembershipView view;
  view.epoch = 42;
  view.members = {3, 7, 190000};
  Result<MembershipView> out = MembershipView::Decode(view.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->epoch, 42u);
  EXPECT_EQ(out->members, view.members);
}

TEST(MembershipViewTest, DecodeRejectsTrailingBytes) {
  MembershipView view;
  view.epoch = 1;
  view.members = {1, 2};
  std::string wire = view.Encode();
  wire.push_back('x');
  EXPECT_FALSE(MembershipView::Decode(wire).ok());
}

TEST(MembershipViewTest, ContainsChecksMembership) {
  MembershipView view;
  view.members = {2, 5, 9};
  EXPECT_TRUE(view.Contains(5));
  EXPECT_FALSE(view.Contains(4));
}

// ---------------------------------------------------------------------------
// ConfigService on a live Paxos group.
// ---------------------------------------------------------------------------

class ConfigServiceTest : public ::testing::Test {
 protected:
  void Build(uint64_t seed = 7) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<sim::Network>(
        sim_.get(),
        std::make_unique<sim::ConstantLatency>(3 * kMillisecond));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    paxos_ = std::make_unique<consensus::PaxosCluster>(
        rpc_.get(), consensus::PaxosOptions{});
    paxos_servers_ = paxos_->AddServers(3);
    paxos_->Start();
    sim_->RunFor(2 * kSecond);  // first leader
    service_ = std::make_unique<ConfigService>(rpc_.get(), paxos_.get(),
                                               paxos_servers_);
  }

  bool BootstrapSync(ConfigService* svc, std::vector<sim::NodeId> members) {
    std::optional<Status> out;
    svc->Bootstrap(std::move(members), [&](Status s) { out = s; });
    sim_->RunFor(10 * kSecond);
    return out.has_value() && out->ok();
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<consensus::PaxosCluster> paxos_;
  std::vector<sim::NodeId> paxos_servers_;
  std::unique_ptr<ConfigService> service_;
};

TEST_F(ConfigServiceTest, BootstrapClaimsEpochOne) {
  Build();
  ASSERT_TRUE(BootstrapSync(service_.get(), {30, 10, 20}));
  EXPECT_EQ(service_->committed().epoch, 1u);
  EXPECT_EQ(service_->committed().members,
            (std::vector<sim::NodeId>{10, 20, 30}));  // sorted
  EXPECT_FALSE(service_->ReconfigInProgress());
}

TEST_F(ConfigServiceTest, RacingBootstrapsAdoptOneChosenView) {
  // Epoch claims go through kPutIfAbsent: exactly one racer creates the
  // epoch-1 record, the other adopts the chosen view instead of forking.
  Build();
  ConfigService rival(rpc_.get(), paxos_.get(), paxos_servers_);
  std::optional<Status> a, b;
  service_->Bootstrap({10, 20, 30}, [&](Status s) { a = s; });
  rival.Bootstrap({40, 50, 60}, [&](Status s) { b = s; });
  sim_->RunFor(10 * kSecond);
  ASSERT_TRUE(a.has_value() && a->ok());
  ASSERT_TRUE(b.has_value() && b->ok());
  EXPECT_EQ(service_->committed().epoch, 1u);
  EXPECT_EQ(rival.committed().epoch, 1u);
  EXPECT_EQ(service_->committed().members, rival.committed().members);
}

TEST_F(ConfigServiceTest, SingleReconfigurationInFlight) {
  Build();
  ASSERT_TRUE(BootstrapSync(service_.get(), {10, 20, 30}));
  std::optional<Status> first;
  ASSERT_TRUE(service_->ProposeJoin(40, [&](Status s) { first = s; }).ok());
  sim_->RunFor(500 * kMillisecond);
  EXPECT_TRUE(service_->ReconfigInProgress());
  // A second proposal must fail fast rather than queue or fork.
  EXPECT_FALSE(service_->ProposeLeave(10, [](Status) {}).ok());
  // With no subscribers reporting catch-up, the service commits after the
  // catch-up timeout (crashed reporters must not wedge reconfiguration).
  sim_->RunFor(15 * kSecond);
  EXPECT_EQ(service_->committed().epoch, 2u);
  EXPECT_TRUE(service_->committed().Contains(40));
  EXPECT_FALSE(service_->ReconfigInProgress());
  EXPECT_GE(service_->stats().commit_timeouts, 1u);
}

// ---------------------------------------------------------------------------
// Elastic DynamoCluster lifecycle.
// ---------------------------------------------------------------------------

class ElasticClusterTest : public ::testing::Test {
 protected:
  static repl::QuorumConfig StrictRingConfig() {
    repl::QuorumConfig cfg;
    cfg.replication_factor = 3;
    cfg.read_quorum = 2;
    cfg.write_quorum = 2;
    cfg.sloppy = false;
    cfg.read_repair = true;
    cfg.use_hash_ring = true;
    return cfg;
  }

  void Build(repl::QuorumConfig cfg, int servers = 4, uint64_t seed = 11) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<sim::Network>(
        sim_.get(),
        std::make_unique<sim::ConstantLatency>(3 * kMillisecond));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    paxos_ = std::make_unique<consensus::PaxosCluster>(
        rpc_.get(), consensus::PaxosOptions{});
    paxos_servers_ = paxos_->AddServers(3);
    paxos_->Start();
    sim_->RunFor(2 * kSecond);
    service_ = std::make_unique<ConfigService>(rpc_.get(), paxos_.get(),
                                               paxos_servers_);
    cluster_ = std::make_unique<repl::DynamoCluster>(rpc_.get(), cfg);
    servers_ = cluster_->AddServers(servers);
    cluster_->StartHintDelivery(200 * kMillisecond);
    cluster_->StartFailureDetection();
    std::optional<Status> boot;
    service_->Bootstrap(servers_, [&](Status s) { boot = s; });
    sim_->RunFor(10 * kSecond);
    ASSERT_TRUE(boot.has_value() && boot->ok());
    cluster_->EnableElastic(service_.get());
    client_ = net_->AddNode();
  }

  bool WaitFor(const std::function<bool()>& pred,
               sim::Time timeout = 30 * kSecond) {
    const sim::Time end = sim_->Now() + timeout;
    while (sim_->Now() < end) {
      if (pred()) return true;
      sim_->RunFor(200 * kMillisecond);
    }
    return pred();
  }

  Result<Version> PutSync(sim::NodeId coordinator, const std::string& key,
                          const std::string& value) {
    std::optional<Result<Version>> out;
    cluster_->Put(client_, coordinator, key, value, {},
                  [&](Result<Version> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  Result<repl::ReadResult> GetSync(sim::NodeId coordinator,
                                   const std::string& key) {
    std::optional<Result<repl::ReadResult>> out;
    cluster_->Get(client_, coordinator, key,
                  [&](Result<repl::ReadResult> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<consensus::PaxosCluster> paxos_;
  std::vector<sim::NodeId> paxos_servers_;
  std::unique_ptr<ConfigService> service_;
  std::unique_ptr<repl::DynamoCluster> cluster_;
  std::vector<sim::NodeId> servers_;
  sim::NodeId client_ = 0;
};

TEST_F(ElasticClusterTest, LiveJoinMigratesKeysAndCommits) {
  Build(StrictRingConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        PutSync(servers_[i % servers_.size()], "k" + std::to_string(i),
                "v" + std::to_string(i))
            .ok());
  }
  auto added = cluster_->AddServerLive([](Status) {});
  ASSERT_TRUE(added.ok());
  const sim::NodeId newcomer = *added;
  ASSERT_TRUE(WaitFor([&] {
    return cluster_->committed_epoch() == 2 && !cluster_->Migrating();
  }));
  const std::vector<sim::NodeId> members = cluster_->CommittedMembers();
  EXPECT_NE(std::find(members.begin(), members.end(), newcomer),
            members.end());
  // The newcomer took over ranges, and their keys were streamed to it
  // BEFORE the epoch committed — not left for background repair.
  EXPECT_GT(cluster_->stats().keys_migrated, 0u);
  EXPECT_GE(cluster_->stats().migrations_completed, 1u);
  // Every key is still readable through the new membership, including via
  // the newcomer as coordinator.
  for (int i = 0; i < 20; ++i) {
    auto got = GetSync(newcomer, "k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i;
    ASSERT_EQ(got->versions.size(), 1u) << "k" << i;
    EXPECT_EQ(got->versions[0].value, "v" + std::to_string(i));
  }
}

TEST_F(ElasticClusterTest, LiveRemovalCommitsAndDepartedNodeStopsServing) {
  Build(StrictRingConfig());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(PutSync(servers_[0], "k" + std::to_string(i), "v").ok());
  }
  const sim::NodeId victim = servers_[1];
  ASSERT_TRUE(cluster_->RemoveServerLive(victim, [](Status) {}).ok());
  ASSERT_TRUE(WaitFor([&] {
    return cluster_->committed_epoch() == 2 && !cluster_->Migrating();
  }));
  const std::vector<sim::NodeId> members = cluster_->CommittedMembers();
  EXPECT_EQ(std::find(members.begin(), members.end(), victim), members.end());
  // The survivors keep serving the full keyspace...
  for (int i = 0; i < 12; ++i) {
    auto got = GetSync(members[i % members.size()], "k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->versions.size(), 1u);
  }
  // ...while the departed node refuses coordination instead of serving a
  // view it is no longer part of.
  EXPECT_FALSE(PutSync(victim, "k0", "late").ok());
}

TEST_F(ElasticClusterTest, RemovedLiveJoinedServerLeavesTheGossipMesh) {
  // The cluster's gossip follows committed views: a server that joined live
  // and was then removed stops gossiping, so keys written after its removal
  // reach every member through anti-entropy but never reach it.
  Build(StrictRingConfig());
  cluster_->StartAntiEntropy(250 * kMillisecond);
  auto added = cluster_->AddServerLive([](Status) {});
  ASSERT_TRUE(added.ok());
  const sim::NodeId joined = *added;
  ASSERT_TRUE(WaitFor([&] {
    return cluster_->committed_epoch() == 2 && !cluster_->Migrating();
  }));
  ASSERT_TRUE(cluster_->RemoveServerLive(joined, [](Status) {}).ok());
  ASSERT_TRUE(WaitFor([&] {
    return cluster_->committed_epoch() == 3 && !cluster_->Migrating();
  }));
  const std::vector<sim::NodeId> members = cluster_->CommittedMembers();
  ASSERT_EQ(std::find(members.begin(), members.end(), joined), members.end());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(PutSync(members[i % members.size()], "g" + std::to_string(i),
                        "v")
                    .ok());
  }
  ASSERT_TRUE(WaitFor([&] { return cluster_->AntiEntropyConverged(); }));
  for (int i = 0; i < 12; ++i) {
    const std::string key = "g" + std::to_string(i);
    for (sim::NodeId member : members) {
      EXPECT_EQ(cluster_->storage(member)->Get(key).size(), 1u)
          << key << " at " << member;
    }
    EXPECT_TRUE(cluster_->storage(joined)->Get(key).empty()) << key;
  }
  EXPECT_EQ(cluster_->stats().epochs_committed, 2u);
}

TEST_F(ElasticClusterTest, StaleCoordinatorFencedThenRecovers) {
  Build(StrictRingConfig());
  const sim::NodeId laggard = servers_[3];
  // Cut only the config channel to one server: data links stay up, so the
  // server keeps serving — but it cannot learn the next epoch.
  net_->SetLinkDropRate(service_->node(), laggard, 1.0);
  ASSERT_TRUE(cluster_->AddServerLive([](Status) {}).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster_->committed_epoch() == 2; }));
  // Clients stamp the config service's committed epoch; the laggard is
  // still on epoch 1, so it must reject rather than serve the old view.
  const uint64_t rejects_before = cluster_->stats().stale_epoch_rejects;
  EXPECT_FALSE(PutSync(laggard, "fenced-key", "v").ok());
  EXPECT_GT(cluster_->stats().stale_epoch_rejects, rejects_before);
  // Heal the config channel: the periodic view pull catches the server up
  // and the same request then succeeds.
  net_->SetLinkDropRate(service_->node(), laggard, 0.0);
  ASSERT_TRUE(WaitFor([&] { return !cluster_->Migrating(); }));
  ASSERT_TRUE(WaitFor([&] { return PutSync(laggard, "fenced-key", "v").ok(); },
                      10 * kSecond));
}

TEST_F(ElasticClusterTest, HintsRedirectToNewOwnerWhenIntendedNodeDeparts) {
  // Satellite regression: a hint addressed to a node that then leaves the
  // membership used to pend forever (delivery retried against a dead node).
  // On epoch change the hint must be re-aimed at the key's new owner and the
  // ledger must stay exact: stored == delivered + lost + pending.
  repl::QuorumConfig cfg = StrictRingConfig();
  cfg.sloppy = true;  // hinted handoff path
  cfg.use_oracle_detector = true;
  Build(cfg);
  // Pick a key owned by the victim, then take the victim down so a sloppy
  // write diverts to a fallback and stores a hint intended for it.
  const sim::NodeId victim = servers_[2];
  std::string key;
  for (int i = 0; i < 200; ++i) {
    const std::string candidate = "k" + std::to_string(i);
    const auto pref = cluster_->PreferenceList(candidate);
    if (!pref.empty() && pref[0] == victim) {
      key = candidate;
      break;
    }
  }
  ASSERT_FALSE(key.empty()) << "no key with victim as primary in 200 tries";
  net_->SetNodeUp(victim, false);
  sim_->RunFor(kSecond);
  sim::NodeId coordinator = 0;
  for (sim::NodeId s : servers_) {
    if (s != victim) {
      coordinator = s;
      break;
    }
  }
  ASSERT_TRUE(PutSync(coordinator, key, "hinted-value").ok());
  EXPECT_GE(cluster_->stats().hints_stored, 1u);
  EXPECT_GE(cluster_->pending_hints(), 1u);
  // Remove the (still down) victim. Its catch-up cannot report, so the
  // config service commits on timeout; the commit then redirects the hint.
  ASSERT_TRUE(cluster_->RemoveServerLive(victim, [](Status) {}).ok());
  ASSERT_TRUE(WaitFor([&] {
    return cluster_->committed_epoch() == 2 && cluster_->pending_hints() == 0;
  }));
  const repl::DynamoStats& stats = cluster_->stats();
  EXPECT_GE(stats.hints_redirected, 1u);
  EXPECT_EQ(stats.hints_stored, stats.hints_delivered + stats.hints_lost);
  // The redirected write is durable at the key's new owners.
  auto got = GetSync(cluster_->CommittedMembers()[0], key);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->versions.size(), 1u);
  EXPECT_EQ(got->versions[0].value, "hinted-value");
}

}  // namespace
}  // namespace evc::membership

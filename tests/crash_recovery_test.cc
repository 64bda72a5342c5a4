// Crash participants: nemesis crashes drop volatile state, restarts replay
// journals. Covers the simulator registry, the nemesis wiring edges and its
// crash model, hint loss accounting, Paxos/timeline/causal WAL recovery, and
// the determinism of the metrics export with the crash.*/wal.* instruments
// live.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/causal_store.h"
#include "consensus/paxos.h"
#include "obs/export.h"
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"
#include "sim/nemesis.h"

namespace evc {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct CountingParticipant : sim::CrashParticipant {
  std::map<uint32_t, int> crashes;
  std::map<uint32_t, int> restarts;
  void OnCrash(uint32_t node) override { ++crashes[node]; }
  void OnRestart(uint32_t node) override { ++restarts[node]; }
};

TEST(CrashParticipantRegistryTest, NotifiesOnlyRegisteredNodes) {
  sim::Simulator sim(1);
  CountingParticipant p;
  sim.RegisterCrashParticipant(1, &p);
  sim.RegisterCrashParticipant(2, &p);

  sim.NotifyCrash(1);
  sim.NotifyCrash(3);  // nobody registered: no-op
  sim.NotifyRestart(1);
  EXPECT_EQ(p.crashes[1], 1);
  EXPECT_EQ(p.crashes[3], 0);
  EXPECT_EQ(p.restarts[1], 1);

  // crash.recoveries counts restarts that reached at least one participant.
  auto& recoveries = sim.metrics().global().CounterFor("crash.recoveries");
  EXPECT_EQ(recoveries.value(), 1.0);
  sim.NotifyRestart(3);  // no participants: not a recovery
  EXPECT_EQ(recoveries.value(), 1.0);

  sim.UnregisterCrashParticipant(&p);
  sim.NotifyCrash(1);
  EXPECT_EQ(p.crashes[1], 1);  // unchanged
}

// A restart pairs with the crash before it: without an unmatched crash there
// is no lost state to rebuild, so no participant replays its journal over
// live state and no recovery is counted.
TEST(CrashParticipantRegistryTest, RestartWithoutCrashReachesNoParticipant) {
  sim::Simulator sim(1);
  CountingParticipant p;
  sim.RegisterCrashParticipant(1, &p);
  auto& recoveries = sim.metrics().global().CounterFor("crash.recoveries");

  sim.NotifyRestart(1);
  EXPECT_EQ(p.restarts[1], 0);
  EXPECT_EQ(recoveries.value(), 0.0);

  sim.NotifyCrash(1);
  sim.NotifyRestart(1);
  sim.NotifyRestart(1);  // already paired with the crash
  EXPECT_EQ(p.crashes[1], 1);
  EXPECT_EQ(p.restarts[1], 1);
  EXPECT_EQ(recoveries.value(), 1.0);
}

TEST(CrashParticipantRegistryTest, RegistrarToleratesSimulatorDyingFirst) {
  auto sim = std::make_unique<sim::Simulator>(1);
  CountingParticipant p;
  sim::CrashRegistrar registrar;
  registrar.Register(sim.get(), 0, &p);
  sim.reset();  // simulator gone; registrar destructor must not touch it
}

TEST(NemesisCrashWiringTest, NotifiesOnRealStateEdgesOnly) {
  sim::Simulator sim(3);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(kMillisecond));
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(net.AddNode());
  CountingParticipant p;
  for (sim::NodeId n : nodes) sim.RegisterCrashParticipant(n, &p);
  sim::Nemesis nemesis(&net, nodes, /*seed=*/5);

  // Restarting an already-up node is not a recovery.
  nemesis.Execute(sim::FaultPlan().RestartAt(0, nodes[0]));
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.restarts[nodes[0]], 0);

  // Crash fires OnCrash exactly once; crashing a down node is a no-op.
  nemesis.Execute(sim::FaultPlan().CrashAt(0, nodes[0]).CrashAt(
      5 * kMillisecond, nodes[0]));
  sim.RunFor(20 * kMillisecond);
  EXPECT_EQ(p.crashes[nodes[0]], 1);
  EXPECT_FALSE(net.IsNodeUp(nodes[0]));

  // Restart notifies recovery before the node starts receiving messages.
  nemesis.Execute(sim::FaultPlan().RestartAt(0, nodes[0]));
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(p.restarts[nodes[0]], 1);
  EXPECT_TRUE(net.IsNodeUp(nodes[0]));

  // HealAll restarts (and notifies) every nemesis-crashed node.
  nemesis.Execute(sim::FaultPlan().CrashAt(0, nodes[1]).CrashAt(0, nodes[2]));
  sim.RunFor(10 * kMillisecond);
  nemesis.HealAll();
  EXPECT_EQ(p.crashes[nodes[1]], 1);
  EXPECT_EQ(p.restarts[nodes[1]], 1);
  EXPECT_EQ(p.restarts[nodes[2]], 1);
  EXPECT_EQ(sim.metrics().global().CounterFor("crash.recoveries").value(),
            3.0);
}

// Without amnesia a nemesis crash is network silence only: the node goes down
// and comes back, and no participant hears of it.
TEST(NemesisCrashWiringTest, NetworkOnlyCrashNotifiesNoParticipant) {
  sim::Simulator sim(3);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(kMillisecond));
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(net.AddNode());
  CountingParticipant p;
  for (sim::NodeId n : nodes) sim.RegisterCrashParticipant(n, &p);
  sim::Nemesis nemesis(&net, nodes, /*seed=*/5, /*amnesia=*/false);

  nemesis.Execute(sim::FaultPlan()
                      .CrashAt(0, nodes[0])
                      .CrashAt(0, sim::FaultAction::kDrawn)
                      .RestartAt(5 * kMillisecond, nodes[0]));
  sim.RunFor(10 * kMillisecond);
  EXPECT_TRUE(net.IsNodeUp(nodes[0]));
  EXPECT_FALSE(nemesis.AllTargetsUp());
  nemesis.HealAll();
  EXPECT_TRUE(nemesis.AllTargetsUp());
  EXPECT_EQ(nemesis.stats().crashes, 2u);
  EXPECT_EQ(nemesis.stats().restarts, 2u);
  EXPECT_TRUE(p.crashes.empty());
  EXPECT_TRUE(p.restarts.empty());
}

// A follower paused at the network layer and then crashed by the nemesis was
// never told of a crash: its state is intact, so its restart must not replay
// the acceptor journal. Replaying the snapshot over live state appended
// every op id in it to the dedup table a second time.
TEST(PaxosCrashTest, RestartOfAPausedServerReplaysNothing) {
  sim::Simulator sim(5);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 10 * kMillisecond));
  sim::Rpc rpc(&net);
  consensus::PaxosCluster cluster(&rpc, consensus::PaxosOptions{});
  auto servers = cluster.AddServers(3);
  consensus::PaxosKvClient client(&cluster, &sim, net.AddNode(), servers);
  cluster.Start();
  sim.RunFor(kSecond);
  int acked = 0;
  for (int i = 0; i < 200; ++i) {
    std::string value = std::to_string(i);
    value.resize(1024, '.');
    client.Put("k" + std::to_string(i % 10), value,
               [&acked](Result<uint64_t> r) { acked += r.ok() ? 1 : 0; });
    sim.RunFor(500 * kMillisecond);
    ASSERT_EQ(acked, i + 1);
  }
  sim.RunFor(kSecond);
  auto& metrics = sim.metrics().global();
  ASSERT_GT(metrics.CounterFor("wal.checkpoints").value(), 0.0);
  const auto leader = cluster.CurrentLeader();
  ASSERT_TRUE(leader.has_value());
  const sim::NodeId follower = servers[0] == *leader ? servers[1] : servers[0];
  const std::vector<uint64_t> ids = cluster.AppliedOpIds(follower);
  ASSERT_EQ(ids.size(), 200u);

  net.SetNodeUp(follower, false);  // a pause, not a crash
  sim::Nemesis nemesis(&net, servers, /*seed=*/1);
  nemesis.Execute(sim::FaultPlan().CrashAt(0, follower).RestartAt(
      100 * kMillisecond, follower));
  sim.RunFor(kSecond);
  EXPECT_TRUE(net.IsNodeUp(follower));
  EXPECT_EQ(cluster.AppliedOpIds(follower), ids);
  EXPECT_EQ(metrics.CounterFor("crash.recoveries").value(), 0.0);
}

// Satellite pin: the hint ledger balances after crashes. Every stored hint
// is delivered, lost, or still pending — never silently vanished.
TEST(DynamoCrashTest, HintLedgerBalancesAfterCrash) {
  sim::Simulator sim(17);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 10 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig cfg;
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  repl::DynamoCluster cluster(&rpc, cfg);
  auto servers = cluster.AddServers(5);
  const sim::NodeId client = net.AddNode();
  sim::Nemesis nemesis(&net, servers, /*seed=*/9);

  // Take one home replica down; sloppy writes hint for it at a substitute.
  // The failure detector (not the old oracle) picks the substitute, so give
  // the heartbeats time to convict the crashed replica first.
  cluster.StartFailureDetection();
  const auto pref = cluster.PreferenceList("k");
  nemesis.Execute(sim::FaultPlan().CrashAt(0, pref[1]));
  sim.RunFor(kSecond);
  bool ok = false;
  cluster.Put(client, pref[0], "k", "v", {},
              [&](Result<Version> r) { ok = r.ok(); });
  sim.RunFor(2 * kSecond);
  ASSERT_TRUE(ok);
  const auto& stats = cluster.stats();
  EXPECT_GE(stats.hints_stored, 1u);
  EXPECT_GE(cluster.pending_hints(), 1u);
  EXPECT_EQ(stats.hints_stored,
            stats.hints_delivered + stats.hints_lost + cluster.pending_hints());

  // Crash everything: buffered hints are volatile and must move to the
  // hints_lost column, not vanish from the books.
  sim::FaultPlan all_down;
  for (sim::NodeId s : servers) all_down.CrashAt(0, s);
  nemesis.Execute(all_down);
  sim.RunFor(50 * kMillisecond);
  EXPECT_EQ(cluster.pending_hints(), 0u);
  EXPECT_GE(cluster.stats().hints_lost, 1u);
  EXPECT_EQ(cluster.stats().hints_stored,
            cluster.stats().hints_delivered + cluster.stats().hints_lost);
  EXPECT_GE(
      sim.metrics().global().CounterFor("crash.state_dropped_bytes").value(),
      1.0);

  nemesis.HealAll();
  sim.RunFor(kSecond);
  // Durable storage replayed its WAL on every restart: the acked write
  // survives even though the hints died.
  bool read_ok = false;
  cluster.Get(client, pref[0], "k", [&](Result<repl::ReadResult> r) {
    read_ok = r.ok() && !r->versions.empty() && r->versions[0].value == "v";
  });
  sim.RunFor(2 * kSecond);
  EXPECT_TRUE(read_ok);
  EXPECT_GT(
      sim.metrics().global().CounterFor("wal.replayed_records").value(), 0.0);
}

TEST(TimelineCrashTest, ReplicaRecoversAppliedPrefixFromJournal) {
  for (const bool durable : {true, false}) {
    sim::Simulator sim(23);
    sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                               2 * kMillisecond, 8 * kMillisecond));
    sim::Rpc rpc(&net);
    repl::TimelineOptions opt;
    opt.replication_factor = 3;
    opt.durable = durable;
    repl::TimelineCluster cluster(&rpc, opt);
    auto servers = cluster.AddServers(3);
    const sim::NodeId client = net.AddNode();

    for (int i = 1; i <= 3; ++i) {
      bool ok = false;
      cluster.Write(client, "k", "v" + std::to_string(i),
                    [&](Result<uint64_t> r) { ok = r.ok(); });
      sim.RunFor(kSecond);
      ASSERT_TRUE(ok);
    }
    // Pick a non-master replica and let replication drain.
    sim.RunFor(kSecond);
    const sim::NodeId master = cluster.MasterOf("k");
    sim::NodeId replica = 0;
    for (sim::NodeId s : cluster.ReplicasOf("k")) {
      if (s != master) replica = s;
    }
    ASSERT_EQ(cluster.VisibleSeqno(replica, "k"), 3u);

    sim::Nemesis nemesis(&net, servers, /*seed=*/3);
    nemesis.Execute(sim::FaultPlan().CrashAt(0, replica).RestartAt(
        200 * kMillisecond, replica));
    sim.RunFor(kSecond);

    if (durable) {
      // Journal replay restored the applied prefix.
      EXPECT_EQ(cluster.VisibleSeqno(replica, "k"), 3u);
      EXPECT_GT(
          sim.metrics().global().CounterFor("wal.replayed_records").value(),
          0.0);
    } else {
      // Nothing journaled: the replica restarts empty and stays stale
      // until the next write replicates (timeline has no anti-entropy).
      EXPECT_EQ(cluster.VisibleSeqno(replica, "k"), 0u);
    }
  }
}

TEST(CausalCrashTest, DatacenterRecoversAppliedWritesAndClock) {
  sim::Simulator sim(31);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             5 * kMillisecond, 20 * kMillisecond));
  sim::Rpc rpc(&net);
  causal::CausalCluster cluster(&rpc);
  auto dcs = cluster.AddDatacenters(3);
  const sim::NodeId client = net.AddNode();

  causal::CausalClient writer(&cluster, client, dcs[0]);
  for (const auto& [k, v] :
       std::vector<std::pair<std::string, std::string>>{{"photo", "p1"},
                                                        {"comment", "c1"}}) {
    bool ok = false;
    writer.Put(k, v, [&](Result<causal::WriteId> r) { ok = r.ok(); });
    while (!ok && sim.Step()) {
    }
    ASSERT_TRUE(ok);
  }
  sim.RunFor(2 * kSecond);  // replicate everywhere
  ASSERT_TRUE(cluster.LocalRead(dcs[2], "comment").found);
  const causal::WriteId comment_id = cluster.LocalRead(dcs[2], "comment").id;

  sim::Nemesis nemesis(&net, dcs, /*seed=*/13);
  nemesis.Execute(sim::FaultPlan().CrashAt(0, dcs[2]).RestartAt(
      300 * kMillisecond, dcs[2]));
  sim.RunFor(kSecond);

  // The applied-write journal restored both records and their write ids.
  const causal::CausalRead photo = cluster.LocalRead(dcs[2], "photo");
  const causal::CausalRead comment = cluster.LocalRead(dcs[2], "comment");
  ASSERT_TRUE(photo.found);
  ASSERT_TRUE(comment.found);
  EXPECT_EQ(photo.value, "p1");
  EXPECT_EQ(comment.value, "c1");
  EXPECT_EQ(comment.id, comment_id);
  EXPECT_GT(
      sim.metrics().global().CounterFor("wal.replayed_records").value(), 0.0);

  // The Lamport clock recovered with the journal: a write at the restarted
  // DC must mint an id newer than everything it had applied.
  bool ok = false;
  causal::WriteId new_id;
  cluster.Put(client, dcs[2], "photo", "p2", {},
              [&](Result<causal::WriteId> r) {
                ok = r.ok();
                if (ok) new_id = *r;
              });
  while (!ok && sim.Step()) {
  }
  ASSERT_TRUE(ok);
  EXPECT_TRUE(comment_id < new_id);
  sim.RunFor(2 * kSecond);
  EXPECT_TRUE(cluster.Converged("photo"));
}

// Acceptance: same-seed runs export byte-identical evc-metrics-v1 JSON,
// including the new crash.* / wal.* instruments.
std::string RunDeterministicAmnesiaScenario() {
  sim::Simulator sim(42);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 12 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig cfg;
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  repl::DynamoCluster cluster(&rpc, cfg);
  auto servers = cluster.AddServers(5);
  const sim::NodeId client = net.AddNode();
  cluster.StartHintDelivery(500 * kMillisecond);

  for (int i = 0; i < 20; ++i) {
    sim.ScheduleAt(i * 100 * kMillisecond, [&cluster, &servers, client, i] {
      cluster.Put(client, servers[static_cast<size_t>(i) % servers.size()],
                  "k" + std::to_string(i % 4), "v" + std::to_string(i), {},
                  [](Result<Version>) {});
    });
  }
  sim::Nemesis nemesis(&net, servers, /*seed=*/99);
  nemesis.Execute(sim::FaultPlan()
                      .CrashAt(300 * kMillisecond, servers[1])
                      .RestartAt(900 * kMillisecond, servers[1])
                      .CrashAt(1200 * kMillisecond, servers[2])
                      .RestartAt(1700 * kMillisecond, servers[2]));
  sim.RunFor(6 * kSecond);
  return obs::MetricsToJson(sim.metrics()).Dump();
}

TEST(CrashObservabilityTest, SameSeedRunsExportIdenticalMetrics) {
  const std::string a = RunDeterministicAmnesiaScenario();
  const std::string b = RunDeterministicAmnesiaScenario();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("crash.recoveries"), std::string::npos);
  EXPECT_NE(a.find("crash.state_dropped_bytes"), std::string::npos);
  EXPECT_NE(a.find("wal.replayed_records"), std::string::npos);
}

}  // namespace
}  // namespace evc

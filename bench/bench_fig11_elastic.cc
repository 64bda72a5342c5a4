// Fig. 11 — Elastic reconfiguration: availability through a live join and a
// live departure.
//
// Claim (paper §7 "rethinking" + the membership design in DESIGN.md §4.4):
// a Paxos-backed configuration service lets the quorum store change
// membership WHILE serving traffic — moved ranges stream in the background,
// the epoch commits only after catch-up, and the only client-visible cost
// is the occasional stale-epoch retry when a request races a commit. The
// available_during_migration claim says exactly that: during the migration
// windows, at least 95 % of attempted operations still succeed.
//
// Setup: 4 strict-quorum servers (N=3 R=2 W=2 over the consistent-hash
// ring), config service on 3 dedicated Paxos nodes, 8 closed-loop client
// sessions (50/50 put/get over 32 keys, ~10 ms think time) for 20 s of
// virtual time. A 5th server live-joins at t=5 s; one founding server is
// live-removed at t=12 s. The per-second table shows the availability dip
// (if any) lining up with the two migration windows.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "consensus/paxos.h"
#include "harness.h"
#include "membership/config_service.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "sim/rpc.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr uint64_t kSeed = 1100;
constexpr int kInitialServers = 4;
constexpr int kSessions = 8;
constexpr int kKeyspace = 32;
constexpr sim::Time kRunFor = 20 * kSecond;
constexpr sim::Time kJoinAt = 5 * kSecond;
constexpr sim::Time kLeaveAt = 12 * kSecond;

struct SecondBucket {
  uint64_t ok = 0;
  uint64_t failed = 0;
  bool migrating = false;  ///< any migration in flight during this second
};

}  // namespace

int main() {
  sim::Simulator sim(kSeed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             1 * kMillisecond, 8 * kMillisecond));
  sim::Rpc rpc(&net);

  // Config core on its own nodes: its availability is a design assumption,
  // the data plane is what the experiment measures.
  consensus::PaxosCluster paxos(&rpc, consensus::PaxosOptions{});
  const std::vector<sim::NodeId> paxos_servers = paxos.AddServers(3);
  paxos.Start();
  membership::ConfigService config(&rpc, &paxos, paxos_servers);

  repl::QuorumConfig cfg;
  cfg.replication_factor = 3;
  cfg.read_quorum = 2;
  cfg.write_quorum = 2;
  cfg.sloppy = false;
  cfg.read_repair = true;
  cfg.use_hash_ring = true;
  repl::DynamoCluster cluster(&rpc, cfg);
  const std::vector<sim::NodeId> servers = cluster.AddServers(kInitialServers);
  cluster.StartHintDelivery(500 * kMillisecond);
  cluster.StartFailureDetection();
  cluster.StartAntiEntropy(250 * kMillisecond);

  sim.RunFor(2 * kSecond);  // config group leader election
  bool bootstrapped = false;
  config.Bootstrap(servers, [&](Status st) {
    EVC_CHECK_OK(st);
    bootstrapped = true;
  });
  while (!bootstrapped) sim.RunFor(100 * kMillisecond);
  cluster.EnableElastic(&config);

  // Workload: closed-loop sessions measuring per-op availability, bucketed
  // by second and by whether a migration was in flight at issue time.
  const sim::Time t0 = sim.Now();
  bool running = true;
  uint64_t steady_attempted = 0, steady_ok = 0;
  uint64_t migr_attempted = 0, migr_ok = 0;
  OnlineStats op_latency;
  std::vector<SecondBucket> per_second(
      static_cast<size_t>(kRunFor / kSecond) + 1);

  auto bucket_at = [&](sim::Time t) -> SecondBucket& {
    const size_t idx = std::min(per_second.size() - 1,
                                static_cast<size_t>((t - t0) / kSecond));
    return per_second[idx];
  };

  Rng root(kSeed ^ 0xe1a5ULL);
  std::vector<Rng> streams;
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < kSessions; ++i) {
    streams.push_back(root.Fork(static_cast<uint64_t>(i)));
    clients.push_back(net.AddNode());
  }
  int wn = 0;
  std::function<void(int)> next = [&](int i) {
    if (!running) return;
    Rng& rng = streams[static_cast<size_t>(i)];
    const std::string key = "k" + std::to_string(rng.NextBounded(kKeyspace));
    const std::vector<sim::NodeId> members = cluster.CommittedMembers();
    const sim::NodeId coord = members[rng.NextBounded(members.size())];
    const sim::Time issue = sim.Now();
    const bool during_migration = cluster.Migrating();
    (during_migration ? migr_attempted : steady_attempted) += 1;
    auto done = [&, i, issue, during_migration](bool ok) {
      if (ok) {
        (during_migration ? migr_ok : steady_ok) += 1;
        ++bucket_at(issue).ok;
        op_latency.Add(static_cast<double>(sim.Now() - issue));
      } else {
        ++bucket_at(issue).failed;
      }
      sim.ScheduleAfter(
          static_cast<sim::Time>(
              streams[static_cast<size_t>(i)].NextExponential(
                  10.0 * kMillisecond)) +
              1,
          [&, i] { next(i); });
    };
    if (rng.NextBool(0.5)) {
      cluster.Put(clients[static_cast<size_t>(i)], coord, key,
                  "v" + std::to_string(wn++), VersionVector{},
                  [done](Result<Version> r) { done(r.ok()); });
    } else {
      cluster.Get(clients[static_cast<size_t>(i)], coord, key,
                  [done](Result<repl::ReadResult> r) { done(r.ok()); });
    }
  };
  for (int i = 0; i < kSessions; ++i) {
    sim.ScheduleAfter(
        static_cast<sim::Time>(streams[static_cast<size_t>(i)].NextExponential(
            10.0 * kMillisecond)) +
            1,
        [&, i] { next(i); });
  }

  // Mark per-second migration flags by sampling every 100 ms.
  std::function<void()> sample = [&] {
    if (!running) return;
    if (cluster.Migrating()) bucket_at(sim.Now()).migrating = true;
    sim.ScheduleAfter(100 * kMillisecond, [&] { sample(); });
  };
  sim.ScheduleAfter(1, [&] { sample(); });

  // The reconfigurations under test.
  sim::NodeId joined = 0;
  sim.ScheduleAfter(kJoinAt, [&] {
    Result<sim::NodeId> r = cluster.AddServerLive([](Status) {});
    EVC_CHECK_OK(r.status());
    joined = *r;
  });
  sim.ScheduleAfter(kLeaveAt, [&] {
    EVC_CHECK_OK(cluster.RemoveServerLive(servers[1], [](Status) {}));
  });

  sim.RunFor(kRunFor);
  running = false;
  sim.RunFor(10 * kSecond);  // drain in-flight ops and the final catch-up

  const uint64_t attempted = steady_attempted + migr_attempted;
  const uint64_t ok = steady_ok + migr_ok;
  const double avail_total =
      attempted == 0 ? 0.0
                     : static_cast<double>(ok) / static_cast<double>(attempted);
  const double avail_steady =
      steady_attempted == 0
          ? 0.0
          : static_cast<double>(steady_ok) /
                static_cast<double>(steady_attempted);
  const double avail_migration =
      migr_attempted == 0 ? 1.0
                          : static_cast<double>(migr_ok) /
                                static_cast<double>(migr_attempted);

  bench::Harness harness("fig11_elastic");
  harness.Table("per_second", {"t_s", "ops_ok", "ops_failed", "migrating"});
  std::printf(
      "=== Fig. 11: availability through live membership changes ===\n"
      "%d servers N=3 R=2 W=2 on the hash ring; join at t=%llds, removal\n"
      "at t=%llds; %d closed-loop sessions, ~10ms think time, 20s virtual\n",
      kInitialServers, static_cast<long long>(kJoinAt / kSecond),
      static_cast<long long>(kLeaveAt / kSecond), kSessions);
  for (size_t t = 0; t < per_second.size(); ++t) {
    const SecondBucket& b = per_second[t];
    if (b.ok + b.failed == 0 && !b.migrating) continue;
    harness.Row("per_second",
                {obs::Json(static_cast<uint64_t>(t)), obs::Json(b.ok),
                 obs::Json(b.failed), obs::Json(b.migrating)});
  }

  const auto& st = cluster.stats();
  harness.Metric("availability_total", avail_total);
  harness.Metric("availability_steady", avail_steady);
  harness.Metric("availability_during_migration", avail_migration);
  harness.Metric("ops_during_migration",
                 static_cast<double>(migr_attempted));
  harness.Metric("keys_migrated", static_cast<double>(st.keys_migrated));
  harness.Metric("stale_epoch_rejects",
                 static_cast<double>(st.stale_epoch_rejects));
  harness.Metric("final_epoch",
                 static_cast<double>(cluster.committed_epoch()));
  harness.Metric("mean_op_latency_ms", op_latency.mean() / kMillisecond);
  harness.AttachSim(sim);
  // Bootstrap is epoch 1, the join makes 2 and the removal 3; without both
  // and without moved data the availability claim would be vacuous.
  harness.Claim("both_reconfigurations_commit",
                cluster.committed_epoch() >= 3 && st.keys_migrated > 0 &&
                    migr_attempted > 0,
                "the join and the removal both commit and move data under "
                "load");
  harness.Claim("available_during_migration", avail_migration >= 0.95,
                "at least 95% of ops issued during a migration succeed; "
                "below it, catch-up moved onto the request path");
  return harness.Finish();
}

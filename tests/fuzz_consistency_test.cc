// Fault-schedule fuzzing as a CI test: every store must satisfy exactly the
// properties its consistency level claims, under randomized nemesis
// schedules. The six CI fuzz profiles x seeds 1..25 are pinned cell by cell
// (claims and exports) in golden_digest_test; the tests here assert what a
// digest cannot: that the checkers are not vacuous, that the hint ledger
// balances, and that anomalies replay. The standalone tools/evc_fuzz binary
// runs wider sweeps and replays seeds.
//
// The regression corpus below pins seeds that once exposed a real bug so
// they are replayed on every CI run.

#include "verify/fuzz.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/paxos.h"
#include "obs/json.h"

namespace evc::verify {
namespace {

// A global counter from a run's metrics export, 0 when it never fired.
int64_t GlobalCounter(const obs::Json& metrics, const char* name) {
  const obs::Json* global = metrics.Find("global");
  const obs::Json* counters = global ? global->Find("counters") : nullptr;
  const obs::Json* value = counters ? counters->Find(name) : nullptr;
  return value ? value->AsInt() : 0;
}

// Regression corpus: these seeds caught a real duplicate-apply bug in the
// Paxos KV client. A proposal that timed out at the client could be
// completed later by a new leader's prepare phase while the client's retry
// also committed — the same logical put executed twice, resurrecting an
// overwritten value into a read (a genuine linearizability violation).
// Fixed by minting one op_id per logical operation and deduplicating in the
// state machine. These schedules must stay linearizable forever.
TEST(FuzzConsistencyTest, PaxosRetryDuplicateRegressionCorpus) {
  const uint64_t kCorpus[] = {37, 78, 112, 123, 129, 142, 172};
  for (uint64_t seed : kCorpus) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kPaxos, seed));
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "paxos regression seed " << seed << ": " << why << "\n"
        << report.Summary();
    EXPECT_TRUE(report.lin_checked);
    EXPECT_GT(report.lin_ops, 0u);
  }
}

// Regression corpus: a committed view used to retire from anti-entropy
// every gossiping node it omitted. A server created for epoch e+1 is not yet
// in epoch e's view, so a late epoch-e commit retired it for good and it
// never received keys written before its join (seed 476: k0 and k2
// diverged). A node now departs only when a committed view omits it after
// an earlier committed view listed it.
TEST(FuzzConsistencyTest, ElasticLateCommitRegressionCorpus) {
  const uint64_t kCorpus[] = {476};
  for (uint64_t seed : kCorpus) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kQuorumElastic, seed));
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "quorum-elastic regression seed " << seed << ": " << why << "\n"
        << report.Summary();
    EXPECT_GT(report.epochs_committed, 0u);
  }
}

// Strict quorums (R+W>N) must deliver all four session guarantees under
// every schedule, and the runs must actually exercise the checker.
TEST(FuzzConsistencyTest, StrictQuorumKeepsSessionGuarantees) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kQuorumStrict, seed));
    ASSERT_TRUE(report.sess_checked);
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
    EXPECT_GT(report.writes_acked + report.reads_ok, 0u);
  }
}

// The negative control: R=W=1 sloppy quorums do NOT provide session
// guarantees, and the checkers must catch a real recorded anomaly on at
// least one seed — otherwise the whole suite could be passing vacuously.
// We scan until the first anomalous seed rather than pinning one, so the
// test is robust to tiny platform-dependent floating-point differences in
// the random schedules.
TEST(FuzzConsistencyTest, WeakQuorumExhibitsSessionAnomalies) {
  bool found_anomaly = false;
  uint64_t anomalous_seed = 0;
  for (uint64_t seed = 1; seed <= 200 && !found_anomaly; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed));
    std::string why;
    // Even anomalous runs must meet the weak store's (weaker) claims:
    // convergence + no lost acked writes.
    ASSERT_TRUE(report.MeetsClaims(&why)) << "seed " << seed << ": " << why;
    if (report.session.total() > 0) {
      found_anomaly = true;
      anomalous_seed = seed;
    }
  }
  EXPECT_TRUE(found_anomaly)
      << "no session anomaly in 200 weak-quorum seeds: the session checker "
         "may have gone vacuous";
  if (found_anomaly) {
    // And the anomaly replays deterministically.
    const FuzzReport again = RunFuzzSeed(
        DefaultFuzzOptions(FuzzStore::kQuorumWeak, anomalous_seed));
    EXPECT_GT(again.session.total(), 0u);
  }
}

// Timeline consistency: a pinned reader never observes a fork (two values
// for one (key, seqno)) and reads monotonically, on every seed.
TEST(FuzzConsistencyTest, TimelineNeverForks) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kTimeline, seed));
    ASSERT_TRUE(report.fork_checked);
    EXPECT_EQ(report.fork_violations, 0u) << "seed " << seed;
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
  }
}

// Causal store: dependency-annotated history passes the causal checker on
// every seed, faults or not.
TEST(FuzzConsistencyTest, CausalStoreStaysCausal) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kCausal, seed));
    ASSERT_TRUE(report.causal_checked);
    EXPECT_TRUE(report.causal.ok())
        << "seed " << seed << ": " << report.causal.ToString();
  }
}

// CRDTs converge under every schedule and the g-counter's converged value
// equals the number of acked increments.
TEST(FuzzConsistencyTest, CrdtsConvergeToCorrectValues) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport counter =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kGCounter, seed));
    ASSERT_TRUE(counter.conv_checked);
    EXPECT_TRUE(counter.convergence.ok())
        << "gcounter seed " << seed << ": " << counter.convergence.ToString();
    EXPECT_TRUE(counter.crdt_value_ok) << "gcounter seed " << seed;

    const FuzzReport orset =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kOrSet, seed));
    ASSERT_TRUE(orset.conv_checked);
    EXPECT_TRUE(orset.convergence.ok())
        << "orset seed " << seed << ": " << orset.convergence.ToString();
  }
}

// Amnesia crashes on: nemesis crashes now really drop volatile state and
// restarts replay each store's journal. Every store must STILL meet the
// claims of its consistency level — durability is part of the contract.
TEST(FuzzConsistencyTest, AllStoresMeetClaimsUnderAmnesiaCrashes) {
  for (FuzzStore store : AllFuzzStores()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FuzzOptions options = DefaultFuzzOptions(store, seed);
      options.amnesia = true;
      const FuzzReport report = RunFuzzSeed(options);
      std::string why;
      EXPECT_TRUE(report.MeetsClaims(&why))
          << ToString(store) << " amnesia seed " << seed << ": " << why
          << "\n"
          << report.Summary();
    }
  }
}

// Amnesia runs replay bit-identically too (crash/recovery is part of the
// deterministic event stream, not a side channel).
TEST(FuzzConsistencyTest, AmnesiaReplayIsBitIdentical) {
  for (FuzzStore store : AllFuzzStores()) {
    FuzzOptions options = DefaultFuzzOptions(store, 11);
    options.amnesia = true;
    const FuzzReport a = RunFuzzSeed(options);
    const FuzzReport b = RunFuzzSeed(options);
    EXPECT_EQ(a.Summary(), b.Summary()) << ToString(store);
  }
}

// Hinted-handoff ledger invariant (documented in quorum_store.h): every
// stored hint is eventually delivered, lost to an amnesia crash, or still
// pending — there is no fourth bucket for hints to silently leak into. A
// 10-seed gray+crash sweep (slow/flaky links and slow nodes keep handoff
// targets half-dead, amnesia crashes destroy undelivered hints) pins the
// accounting the resilience benches report.
TEST(FuzzConsistencyTest, HintLedgerBalancesUnderGrayAndCrashFaults) {
  uint64_t total_stored = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed);
    options.amnesia = true;
    options.nemesis.allow_loss = false;
    options.nemesis.allow_duplication = false;
    options.nemesis.allow_slow_links = true;
    options.nemesis.allow_flaky_links = true;
    options.nemesis.allow_slow_nodes = true;
    options.nemesis.mean_fault_interval = sim::kSecond;
    const FuzzReport report = RunFuzzSeed(options);
    EXPECT_EQ(report.hints_stored, report.hints_delivered +
                                       report.hints_lost +
                                       report.hints_pending)
        << "seed " << seed << ": stored=" << report.hints_stored
        << " delivered=" << report.hints_delivered
        << " lost=" << report.hints_lost
        << " pending=" << report.hints_pending;
    total_stored += report.hints_stored;
  }
  // The sweep must actually exercise hinted handoff, or the ledger check
  // above is vacuous.
  EXPECT_GT(total_stored, 0u);
}

// Satellite regression: the ledger must stay exact when the hint's TARGET
// leaves the membership mid-run. A hint addressed to a departed node used to
// pend forever (delivery retried against a node that would never answer);
// now an epoch commit redirects it to the key's new owner, so after
// quiescence the pending bucket must be EMPTY — delivered, lost, or
// redirected-and-delivered are the only terminal states. The elastic
// schedule (live adds/removes + rolling restarts + gray links) is exactly
// the one that used to leak.
TEST(FuzzConsistencyTest, HintLedgerBalancesAcrossMembershipChanges) {
  uint64_t total_stored = 0;
  uint64_t total_epochs = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumElastic, seed);
    // Sloppy quorums so rolling restarts actually divert writes and store
    // hints; strict mode stores hints only on rare cross-epoch failures.
    options.elastic_sloppy = true;
    options.nemesis.mean_fault_interval = sim::kSecond;
    const FuzzReport report = RunFuzzSeed(options);
    EXPECT_EQ(report.hints_stored, report.hints_delivered +
                                       report.hints_lost +
                                       report.hints_pending)
        << "seed " << seed << ": stored=" << report.hints_stored
        << " delivered=" << report.hints_delivered
        << " lost=" << report.hints_lost
        << " pending=" << report.hints_pending;
    EXPECT_EQ(report.hints_pending, 0u)
        << "seed " << seed << ": hints still pending after quiescence — "
        << "a departed-node hint was parked instead of redirected";
    total_stored += report.hints_stored;
    total_epochs += report.epochs_committed;
  }
  // Non-vacuity: the sweep must actually reconfigure and actually store
  // hints, or the checks above prove nothing.
  EXPECT_GT(total_epochs, 0u);
  EXPECT_GT(total_stored, 0u);
}

// Edge cache: all four session guarantees hold THROUGH the cache under the
// edge-cache profile's crash + gray interleavings, and the runs really do
// serve reads from cached leases (non-vacuity).
TEST(FuzzConsistencyTest, EdgeCacheKeepsGuaranteesUnderCrashAndGrayFaults) {
  uint64_t total_hits = 0;
  uint64_t total_revokes = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kEdgeCache, seed);
    ASSERT_TRUE(ApplyFuzzProfile("edge-cache", &options));
    const FuzzReport report = RunFuzzSeed(options);
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "edge-cache seed " << seed << ": " << why << "\n"
        << report.Summary();
    ASSERT_TRUE(report.sess_checked);
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
    EXPECT_EQ(report.session.cached_read_violations, 0u) << "seed " << seed;
    total_hits += report.cache_hits;
    total_revokes += report.cache_revokes_sent;
  }
  EXPECT_GT(total_hits, 0u) << "no run served a read from cache";
  EXPECT_GT(total_revokes, 0u) << "no run exercised revoke-on-write";
}

// Paxos as the fuzz runner's paxos row drives it, except that every value
// is padded to 4 KiB on the way in and stripped on the way out. The values
// the runner records, and so the checkers' histories, stay short; only the
// acceptor journals grow past the 64 KiB checkpoint floor, after a handful
// of slots.
class PaddedPaxosStore : public StoreUnderTest {
 public:
  PaddedPaxosStore(sim::Rpc* rpc, const FuzzOptions& o)
      : cluster_(rpc, {}),
        servers_(cluster_.AddServers(o.servers)) {
    cluster_.Start();
    rpc->simulator()->RunFor(2 * sim::kSecond);  // first leader
    for (int i = 0; i < o.sessions; ++i) {
      clients_.push_back(std::make_unique<consensus::PaxosKvClient>(
          &cluster_, rpc->simulator(), rpc->network()->AddNode(), servers_));
    }
  }
  std::vector<sim::NodeId> FaultTargets() const override { return servers_; }
  Op Draw(int session, int n, Rng* rng, const KeyDraw&) override {
    return StoreUnderTest::Draw(session, n, rng, [] { return "reg"; });
  }
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    std::string padded = value;
    padded.resize(4096, kPad);
    clients_[session]->Put(key, std::move(padded), [done](Result<uint64_t> r) {
      done({.ok = r.ok()});
    });
  }
  void Get(int session, const std::string& key, Done done) override {
    clients_[session]->Get(key, [done](Result<std::string> r) {
      OpOutcome out{.ok = r.ok() || r.status().IsNotFound()};
      if (r.ok()) out.observed = {Strip(*r)};
      done(std::move(out));
    });
  }
  bool Settled() override {
    for (sim::NodeId srv : servers_) {
      if (cluster_.AppliedIndex(srv) != cluster_.AppliedIndex(servers_[0])) {
        return false;
      }
    }
    return cluster_.AppliedIndex(servers_[0]) > 0;
  }
  // Besides the register, each server's op-id dedup table: a snapshot that
  // lost it would leave a restarted server unable to absorb a retry.
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    std::vector<ReplicaState> states(servers_.size());
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (auto v = cluster_.AppliedValue(servers_[i], "reg")) {
        states[i]["reg"] = {Strip(*v)};
      }
      std::string ids;
      for (uint64_t id : cluster_.AppliedOpIds(servers_[i])) {
        ids += std::to_string(id) + ",";
      }
      states[i]["applied op ids"] = {ids};
    }
    return states;
  }
  bool Covered(const AckedWrite&, const std::vector<std::string>&) override {
    return true;  // a register keeps its last write; see the paxos row
  }

 private:
  static constexpr char kPad = '~';
  static std::string Strip(const std::string& v) {
    return v.substr(0, v.find(kPad));
  }
  consensus::PaxosCluster cluster_;
  std::vector<sim::NodeId> servers_;
  std::vector<std::unique_ptr<consensus::PaxosKvClient>> clients_;
};

// Bounded Paxos state under crash-heavy amnesia faults: the journals
// checkpoint, slots below the group floor are dropped, restarts replay
// snapshots, and every seed still meets the paxos row's claims.
TEST(FuzzConsistencyTest, PaxosCheckpointsKeepClaimsUnderAmnesia) {
  int64_t checkpoints = 0;
  int64_t dropped = 0;
  int64_t snapshot_restarts = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kPaxos, seed);
    ASSERT_TRUE(ApplyFuzzProfile("crash-heavy", &options));
    options.amnesia = true;
    std::string metrics_json;
    options.capture_metrics_json = &metrics_json;
    const FuzzReport report = RunFuzzSeed(options, [&options](sim::Rpc* rpc) {
      return std::make_unique<PaddedPaxosStore>(rpc, options);
    });
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "padded paxos seed " << seed << ": " << why << "\n"
        << report.Summary();
    EXPECT_TRUE(report.lin_checked && report.conv_checked) << "seed " << seed;
    auto metrics = obs::Json::Parse(metrics_json);
    ASSERT_TRUE(metrics.ok());
    checkpoints += GlobalCounter(*metrics, "wal.checkpoints");
    dropped += GlobalCounter(*metrics, "paxos.slots_dropped");
    snapshot_restarts += GlobalCounter(*metrics, "paxos.snapshots_replayed");
  }
  EXPECT_GT(checkpoints, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(snapshot_restarts, 0);
}

// The nemesis alone decides what a crash forgets (sim/nemesis.h): every store
// always registers as a crash participant, and only an amnesia run's
// nemesis notifies them. One crash-heavy seed per store, run twice: the
// amnesia run's recoveries show the seed restarts a node, and the same
// schedule without amnesia must leave no crash.* counter at all.
TEST(FuzzConsistencyTest, OnlyAmnesiaCrashesReachTheStores) {
  for (FuzzStore store : AllFuzzStores()) {
    for (const bool amnesia : {false, true}) {
      FuzzOptions options = DefaultFuzzOptions(store, /*seed=*/1);
      ASSERT_TRUE(ApplyFuzzProfile("crash-heavy", &options));
      options.amnesia = amnesia;
      std::string metrics_json;
      options.capture_metrics_json = &metrics_json;
      const FuzzReport report = RunFuzzSeed(options);
      std::string why;
      EXPECT_TRUE(report.MeetsClaims(&why))
          << ToString(store) << " amnesia=" << amnesia << ": " << why;
      auto metrics = obs::Json::Parse(metrics_json);
      ASSERT_TRUE(metrics.ok());
      if (amnesia) {
        EXPECT_GT(GlobalCounter(*metrics, "crash.recoveries"), 0)
            << ToString(store);
      } else {
        EXPECT_EQ(metrics_json.find("\"crash."), std::string::npos)
            << ToString(store);
      }
    }
  }
}

// The store-name round trip the replay CLI depends on.
TEST(FuzzConsistencyTest, StoreNamesRoundTrip) {
  for (FuzzStore store : AllFuzzStores()) {
    FuzzStore parsed;
    ASSERT_TRUE(ParseFuzzStore(ToString(store), &parsed)) << ToString(store);
    EXPECT_EQ(parsed, store);
  }
  FuzzStore ignored;
  EXPECT_FALSE(ParseFuzzStore("no-such-store", &ignored));
}

}  // namespace
}  // namespace evc::verify

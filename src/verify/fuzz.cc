#include "verify/fuzz.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "cache/edge_cache.h"
#include "causal/causal_store.h"
#include "obs/export.h"
#include "consensus/paxos.h"
#include "membership/config_service.h"
#include "crdt/gcounter.h"
#include "crdt/orset.h"
#include "replication/anti_entropy.h"
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"
#include "sim/latency.h"
#include "sim/rpc.h"
#include "verify/linearizability.h"

namespace evc::verify {

using sim::kMillisecond;
using sim::kSecond;

bool ApplyFuzzProfile(const std::string& profile, FuzzOptions* options) {
  sim::NemesisScheduleOptions& n = options->nemesis;
  if (profile.empty()) return true;
  if (profile == "crash-heavy") {
    n.allow_loss = n.allow_duplication = false;
    n.mean_fault_interval = kSecond;
    return true;
  }
  if (profile == "gray-heavy" || profile == "edge-cache") {
    // A durable lease table would make the edge cache's recovery fence
    // dead code, so its profile forces amnesia on.
    if (profile == "edge-cache") options->amnesia = true;
    n.allow_partitions = n.allow_loss = n.allow_duplication = false;
    n.allow_slow_links = n.allow_flaky_links = n.allow_slow_nodes = true;
    n.mean_fault_interval = kSecond;
    return true;
  }
  if (profile == "overload") {
    // Load is the fault under test: every shed or failed op traces back to
    // overload, never to an unreachable replica. Shedding and failing fast
    // are legal; corrupting state or failing to converge is not.
    options->overload = true;
    n.allow_load_spikes = true;
    n.allow_partitions = n.allow_crashes = false;
    n.allow_loss = n.allow_duplication = false;
    n.mean_fault_interval = 2 * kSecond;
    return true;
  }
  if (profile == "elastic") {
    // Reconfiguration is the fault under test, so every anomaly traces back
    // to a membership boundary. Stores without a membership actuator log
    // the add/remove draws as skipped.
    n.allow_partitions = n.allow_crashes = false;
    n.allow_loss = n.allow_duplication = false;
    n.allow_slow_links = n.allow_flaky_links = n.allow_slow_nodes = true;
    n.allow_membership = n.allow_rolling_restart = true;
    n.mean_fault_interval = 2 * kSecond;
    return true;
  }
  return false;
}

bool FuzzReport::AnomalyDetected() const {
  // Every claim a store can break, plus the session anomalies weak stores
  // are allowed.
  return !MeetsClaims() || (sess_checked && session.total() > 0);
}

std::string FuzzReport::Summary() const {
  std::ostringstream os;
  os << "store=" << verify::ToString(store) << " seed=" << seed
     << " writes=" << writes_acked << "+" << writes_failed
     << " reads=" << reads_ok << "+" << reads_failed
     << " faults=" << faults_injected << " drops=" << messages_dropped;
  if (lin_checked) {
    os << " lin=" << (linearizable ? "ok" : (lin_exhausted ? "?" : "FAIL"))
       << "(" << lin_ops << "ops)";
  }
  if (conv_checked) {
    os << " conv="
       << (!conv_applicable ? "n/a" : convergence.ok() ? "ok" : "FAIL");
  }
  if (sess_checked) {
    os << " sess=ryw" << session.ryw_violations << ",mr"
       << session.mr_violations << ",mw" << session.mw_violations << ",wfr"
       << session.wfr_violations;
    if (session.cached_reads > 0) {
      os << " cached=" << session.cached_read_violations << "/"
         << session.cached_reads;
    }
  }
  if (causal_checked) os << " causal=" << (causal.ok() ? "ok" : "FAIL");
  if (fork_checked) os << " forks=" << fork_violations;
  if (crdt_value_checked) os << " value=" << (crdt_value_ok ? "ok" : "FAIL");
  if (store == FuzzStore::kEdgeCache) {
    os << " cache=" << cache_hits << "h," << cache_misses << "m,"
       << cache_revokes_sent << "rev," << cache_writes_fenced << "fence";
  }
  if (store == FuzzStore::kQuorumElastic) {
    os << " elastic=" << epochs_committed << "e," << membership_ops << "ops,"
       << keys_migrated << "mig," << stale_epoch_rejects << "fence,"
       << hints_redirected << "redir";
  }
  os << " claims=" << (MeetsClaims() ? "ok" : "VIOLATED");
  return os.str();
}

namespace {

constexpr int64_t kOpenInterval = std::numeric_limits<int64_t>::max();

uint64_t NemesisSeed(uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x6e656d65ULL;  // "neme"
}

/// Simulator + network + rpc, wired identically for every store.
struct SimStack {
  explicit SimStack(const FuzzOptions& o)
      : sim(o.seed),
        net(&sim,
            std::make_unique<sim::UniformLatency>(2 * kMillisecond,
                                                  12 * kMillisecond)),
        rpc(&net) {}
  sim::Simulator sim;
  sim::Network net;
  sim::Rpc rpc;
};

std::string UniqueValue(int session, int n) {
  return "s" + std::to_string(session) + "." + std::to_string(n);
}

std::string KeyName(uint64_t k) { return "k" + std::to_string(k); }

/// Drives the common phases of every runner: unleash the nemesis, run the
/// client sessions to completion, heal, then quiesce (optionally breaking
/// early once `settled` reports the store repaired).
class Driver : public sim::LoadActuator {
 public:
  /// Continuation an op calls exactly once, when it completes: sleeps the
  /// session's think time, then issues its next op.
  using Done = std::function<void()>;
  /// Issues op `n` of session `i`, drawing from the session's `rng`. Each
  /// store keeps its own issue/record code and RNG draw order.
  using Issue = std::function<void(int i, int n, Rng* rng, Done done)>;

  /// The nemesis attacks `targets`.
  Driver(SimStack* s, std::vector<sim::NodeId> targets,
         const FuzzOptions& options)
      : s_(s),
        nemesis_(&s->net, std::move(targets), NemesisSeed(options.seed)),
        options_(options) {
    // Wire the load faults into this driver's pacing. Consumes no
    // randomness and is inert unless the schedule draws kFlashCrowd /
    // kLoadSpike (the load family is off by default), so historical
    // schedules replay bit-identically.
    nemesis_.SetLoadActuator(this);
  }

  sim::Nemesis& nemesis() { return nemesis_; }

  /// Exponential think time targeting ops_per_session ops over the fault
  /// window; an active flash crowd divides the mean gap (multiplies the
  /// offered rate).
  sim::Time NextGap(Rng* rng) const {
    const double mean = static_cast<double>(options_.nemesis.duration) /
                        std::max(1, options_.ops_per_session) /
                        std::max(1.0, load_factor_);
    return static_cast<sim::Time>(rng->NextExponential(mean)) + 1;
  }

  /// Draws a workload key, rotated by the hot-key shifts applied so far
  /// (kLoadSpike). With no shifts this is exactly the historical
  /// "k<NextBounded(keyspace)>" draw.
  std::string Key(Rng* rng, int keyspace) const {
    const uint64_t drawn = rng->NextBounded(keyspace);
    return KeyName((drawn + key_shift_) %
                   static_cast<uint64_t>(std::max(1, keyspace)));
  }

  // sim::LoadActuator:
  void SetLoadFactor(double factor) override { load_factor_ = factor; }
  void ShiftHotKeys() override { ++key_shift_; }

  /// Runs the options' client sessions as closed loops (session i draws
  /// from Rng(seed ^ salt).Fork(i)) under the nemesis schedule until each
  /// has issued ops_per_session ops or the fault window is over, then heals.
  void RunWorkload(uint64_t salt, Issue issue) {
    issue_ = std::move(issue);
    Rng root(options_.seed ^ salt);
    for (int i = 0; i < options_.sessions; ++i) {
      rngs_.push_back(root.Fork(static_cast<uint64_t>(i)));
    }
    issued_.assign(options_.sessions, 0);
    live_ = options_.sessions;
    for (int i = 0; i < options_.sessions; ++i) ScheduleNext(i);
    nemesis_.Execute(nemesis_.GeneratePlan(options_.nemesis));
    const sim::Time deadline =
        s_->sim.Now() + options_.nemesis.duration + 30 * kSecond;
    while (live_ > 0 && s_->sim.Now() < deadline) {
      s_->sim.RunFor(50 * kMillisecond);
    }
    stopped_ = true;
    nemesis_.HealAll();
  }

  /// Fills the report fields every store shares, and the export captures.
  void FillCommon(FuzzReport* rep) const {
    rep->store = options_.store;
    rep->seed = options_.seed;
    rep->faults_injected = nemesis_.stats().total();
    rep->messages_dropped = s_->net.messages_dropped();
    if (options_.capture_metrics_json != nullptr) {
      *options_.capture_metrics_json =
          obs::MetricsToJson(s_->sim.metrics()).Dump(2);
    }
    if (options_.capture_trace_csv != nullptr) {
      *options_.capture_trace_csv = obs::TraceToCsv(s_->sim.tracer());
    }
  }

  void Quiesce(const std::function<bool()>& settled = nullptr) {
    const sim::Time end = s_->sim.Now() + options_.quiescence_timeout;
    // Always give in-flight client ops and first repair rounds a chance.
    s_->sim.RunFor(2 * kSecond);
    while (s_->sim.Now() < end) {
      if (settled && settled()) break;
      s_->sim.RunFor(1 * kSecond);
    }
  }

 private:
  void ScheduleNext(int i) {
    s_->sim.ScheduleAfter(NextGap(&rngs_[i]), [this, i] { Next(i); });
  }

  void Next(int i) {
    if (stopped_ || issued_[i] >= options_.ops_per_session) {
      --live_;
      return;
    }
    const int n = issued_[i]++;
    issue_(i, n, &rngs_[i], [this, i] { ScheduleNext(i); });
  }

  SimStack* s_;
  sim::Nemesis nemesis_;
  const FuzzOptions& options_;
  Issue issue_;
  std::vector<Rng> rngs_;    ///< per-session streams
  std::vector<int> issued_;  ///< ops issued per session
  int live_ = 0;
  bool stopped_ = false;
  double load_factor_ = 1.0;  ///< kFlashCrowd multiplier (1.0 = nominal)
  uint64_t key_shift_ = 0;    ///< hot-key rotations applied (kLoadSpike)
};

// --------------------------------------------------------------------------
// Paxos: linearizability + post-heal state-machine agreement.
// --------------------------------------------------------------------------

FuzzReport RunPaxos(const FuzzOptions& o) {
  FuzzReport rep;
  SimStack s(o);
  consensus::PaxosOptions popt;
  popt.crash_amnesia = o.amnesia;
  consensus::PaxosCluster cluster(&s.rpc, popt);
  const std::vector<sim::NodeId> servers = cluster.AddServers(o.servers);
  cluster.Start();
  s.sim.RunFor(2 * kSecond);  // let the first leader emerge before faults

  Driver driver(&s, servers, o);

  const std::string kKey = "reg";
  std::vector<Operation> history;
  std::vector<std::unique_ptr<consensus::PaxosKvClient>> clients;
  for (int i = 0; i < o.sessions; ++i) {
    clients.push_back(std::make_unique<consensus::PaxosKvClient>(
        &cluster, &s.sim, s.net.AddNode(), servers));
  }

  driver.RunWorkload(0x5e5510ULL, [&](int i, int n, Rng* rng,
                                      const Driver::Done& done) {
    const int64_t invoke = s.sim.Now();
    if (rng->NextBool(0.5)) {
      const std::string value = UniqueValue(i, n);
      // Record at issue with an open interval: a timed-out proposal may
      // still commit, so it must stay a candidate for every later time.
      history.push_back(Write(value, invoke, kOpenInterval));
      const size_t slot = history.size() - 1;
      clients[i]->Put(kKey, value, [&, slot, done](Result<uint64_t> r) {
        if (r.ok()) {
          history[slot].response = s.sim.Now();
          ++rep.writes_acked;
        } else {
          ++rep.writes_failed;
        }
        done();
      });
    } else {
      clients[i]->Get(kKey, [&, invoke, done](Result<std::string> r) {
        const int64_t response = s.sim.Now();
        if (r.ok()) {
          history.push_back(Read(*r, invoke, response));
          ++rep.reads_ok;
        } else if (r.status().IsNotFound()) {
          history.push_back(ReadNotFound(invoke, response));
          ++rep.reads_ok;
        } else {
          ++rep.reads_failed;
        }
        done();
      });
    }
  });
  driver.Quiesce([&] {  // until the applied state machines agree
    const uint64_t index0 = cluster.AppliedIndex(servers[0]);
    for (sim::NodeId srv : servers) {
      if (cluster.AppliedIndex(srv) != index0) return false;
    }
    return index0 > 0;
  });

  rep.lin_checked = true;
  rep.lin_ops = history.size();
  CheckOptions lin_options;
  lin_options.max_states = 1u << 22;
  const CheckResult lin = CheckLinearizable(history, lin_options);
  rep.linearizable = lin.linearizable;
  rep.lin_exhausted = lin.exhausted;

  // Post-heal agreement of the applied state machines.
  std::vector<ReplicaState> states;
  for (sim::NodeId srv : servers) {
    ReplicaState state;
    if (auto v = cluster.AppliedValue(srv, kKey)) state[kKey] = {*v};
    states.push_back(std::move(state));
  }
  rep.conv_checked = true;
  rep.convergence = CheckConvergence(states, {});

  driver.FillCommon(&rep);
  return rep;
}

// --------------------------------------------------------------------------
// Dynamo-style quorum store: strict R+W>N, weak R=W=1, and elastic (R+W>N
// with Paxos-backed live membership changes). In elastic mode the nemesis
// adds, removes, and rolling-restarts data servers mid-workload; the
// checkers then assert the static-cluster claims (convergence, session
// guarantees, hint ledger) ACROSS every reconfiguration boundary.
// --------------------------------------------------------------------------

/// Drives nemesis kAddNode/kRemoveNode draws into DynamoCluster live
/// reconfigurations. Refusals (reconfig already in flight, member floor) are
/// reported back so the nemesis records the op as skipped.
class ElasticActuator : public sim::MembershipActuator {
 public:
  explicit ElasticActuator(repl::DynamoCluster* cluster) : cluster_(cluster) {}

  bool AddNode() override {
    return cluster_->AddServerLive([](Status) {}).ok();
  }
  std::vector<sim::NodeId> RemovableNodes() override {
    std::vector<sim::NodeId> members = cluster_->CommittedMembers();
    if (static_cast<int>(members.size()) <= repl::kMinElasticMembers) {
      return {};
    }
    return members;
  }
  bool RemoveNode(sim::NodeId node) override {
    return cluster_->RemoveServerLive(node, [](Status) {}).ok();
  }

 private:
  repl::DynamoCluster* cluster_;
};

FuzzReport RunQuorum(const FuzzOptions& o) {
  FuzzReport rep;
  SimStack s(o);
  const bool elastic = o.store == FuzzStore::kQuorumElastic;
  const bool strict = o.store != FuzzStore::kQuorumWeak;

  // The configuration service's Paxos group lives on its own nodes, OUTSIDE
  // the nemesis target set: the config core's availability is an assumption
  // of the design (exactly as in the paper's primary-copy protocols); what
  // the schedule attacks is the data plane through membership churn.
  std::optional<consensus::PaxosCluster> paxos;
  std::optional<membership::ConfigService> config;
  if (elastic) {
    paxos.emplace(&s.rpc, consensus::PaxosOptions{});
    const std::vector<sim::NodeId> paxos_servers = paxos->AddServers(3);
    paxos->Start();
    config.emplace(&s.rpc, &*paxos, paxos_servers);
  }

  repl::QuorumConfig cfg;
  cfg.replication_factor = 3;
  cfg.read_quorum = strict ? 2 : 1;
  cfg.write_quorum = strict ? 2 : 1;
  cfg.sloppy = elastic ? o.elastic_sloppy : !strict;
  cfg.read_repair = true;
  cfg.use_hash_ring = elastic;
  cfg.crash_amnesia = o.amnesia;
  cfg.use_oracle_detector = o.use_oracle_detector;
  if (o.overload) {
    // Overload profile: full defense stack on. Shedding / failing fast is
    // legal; the claims below still have to hold.
    cfg.admission_enabled = true;
    cfg.resilience.retry_budget.enabled = true;
    cfg.resilience.aimd.enabled = true;
  }
  repl::DynamoCluster cluster(&s.rpc, cfg);
  const std::vector<sim::NodeId> servers = cluster.AddServers(o.servers);
  cluster.StartHintDelivery(500 * kMillisecond);
  cluster.StartFailureDetection();  // no-op in oracle mode

  std::vector<ReplicaStorage*> storages;
  for (sim::NodeId srv : servers) storages.push_back(cluster.storage(srv));
  repl::AntiEntropyOptions ae_options;
  ae_options.interval = 250 * kMillisecond;
  if (!o.use_oracle_detector) {
    // Route gossip peer selection through each node's own detector verdict.
    ae_options.peer_usable = [&cluster](sim::NodeId self, sim::NodeId peer) {
      return cluster.PeerUsable(self, peer);
    };
  }
  if (o.overload) {
    // Gossip yields to peers advertising load (piggybacked on replies).
    ae_options.load_of = [&s](sim::NodeId self, sim::NodeId peer) {
      return s.rpc.PeerLoad(self, peer);
    };
  }
  repl::AntiEntropy ae(&s.net, servers, storages, ae_options);
  ae.Start();

  std::set<sim::NodeId> gossiping(servers.begin(), servers.end());
  if (elastic) {
    // Membership wiring: a live-joined server starts gossiping before any
    // data moves; a committed removal marks the node departed so peer draws
    // skip it.
    cluster.SetServerCreatedCallback(
        [&](sim::NodeId node, ReplicaStorage* storage) {
          ae.AddMember(node, storage);
          gossiping.insert(node);
        });
    cluster.SetCommitCallback([&](const membership::MembershipView& view) {
      ++rep.epochs_committed;
      std::erase_if(gossiping, [&](sim::NodeId node) {
        if (view.Contains(node)) return false;
        ae.MarkDeparted(node);
        return true;
      });
    });

    // Bootstrap epoch 1 with the initial server set, then hand the cluster
    // its view-driven membership.
    s.sim.RunFor(2 * kSecond);  // let the config group elect a leader
    bool bootstrapped = false;
    config->Bootstrap(servers, [&](Status st) {
      EVC_CHECK_OK(st);
      bootstrapped = true;
    });
    const sim::Time boot_deadline = s.sim.Now() + 30 * kSecond;
    while (!bootstrapped && s.sim.Now() < boot_deadline) {
      s.sim.RunFor(100 * kMillisecond);
    }
    EVC_CHECK(bootstrapped);
    cluster.EnableElastic(&*config);
  }

  Driver driver(&s, servers, o);
  ElasticActuator actuator(&cluster);
  if (elastic) driver.nemesis().SetMembershipActuator(&actuator);

  std::vector<RecordedOp> history;
  std::vector<AckedWrite> acked;
  std::map<std::string, VersionVector> acked_vv;  // value -> stored vv
  struct Session {
    sim::NodeId node = 0;
    std::map<std::string, VersionVector> context;  // last read context
  };
  std::vector<Session> sessions(o.sessions);
  for (Session& sess : sessions) sess.node = s.net.AddNode();

  driver.RunWorkload(0x0d15c0ULL, [&](int i, int n, Rng* rng,
                                      const Driver::Done& done) {
    Session& sess = sessions[i];
    const std::string key = driver.Key(rng, o.keyspace);
    // Coordinators are drawn from the CURRENT committed membership — the
    // client-visible contract of the config service (a static cluster's is
    // its server list). A request can still race a commit (pick a server
    // that departs in flight); it then fails cleanly at the epoch fence and
    // is simply counted as unavailable.
    const std::vector<sim::NodeId> coords = cluster.CommittedMembers();
    const sim::NodeId coord = coords[rng->NextBounded(coords.size())];
    const int64_t invoke = s.sim.Now();
    if (rng->NextBool(0.5)) {
      const std::string value = UniqueValue(i, n);
      history.push_back(RecWrite(i, key, value, invoke, invoke,
                                 /*acked=*/false));
      const size_t slot = history.size() - 1;
      cluster.Put(sess.node, coord, key, value, sess.context[key],
                  [&, key, value, slot, done](Result<Version> r) {
                    if (r.ok()) {
                      history[slot].acked = true;
                      history[slot].response = s.sim.Now();
                      acked.push_back({key, value});
                      acked_vv[value] = r->vv;
                      ++rep.writes_acked;
                    } else {
                      ++rep.writes_failed;
                    }
                    done();
                  });
    } else {
      cluster.Get(sess.node, coord, key,
                  [&, i, key, invoke, done](Result<repl::ReadResult> r) {
                    const int64_t response = s.sim.Now();
                    if (r.ok()) {
                      std::vector<std::string> observed;
                      for (const Version& v : r->versions) {
                        observed.push_back(v.value);
                      }
                      sessions[i].context[key] = r->context;
                      history.push_back(
                          RecRead(i, key, std::move(observed), invoke,
                                  response));
                      ++rep.reads_ok;
                    } else {
                      ++rep.reads_failed;
                    }
                    done();
                  });
    }
  });
  // Quiesce until hints have drained and anti-entropy reports the replicas
  // identical — in elastic mode also until the last reconfiguration has
  // fully settled (prepare → catch-up → commit → every server on the
  // committed epoch).
  driver.Quiesce([&] {
    return (!elastic || !cluster.Migrating()) &&
           cluster.pending_hints() == 0 && ae.Converged();
  });

  // Final state: anti-entropy replicates every key to every server, so all
  // server states must agree in full. Elastic convergence is asserted over
  // the FINAL committed membership: departed servers keep their stale
  // shadow copies (harmless — nothing routes to them), live-joined servers
  // must hold the full acked history.
  const std::vector<sim::NodeId> final_members = cluster.CommittedMembers();
  std::vector<ReplicaState> states;
  for (sim::NodeId srv : final_members) {
    ReplicaState state;
    for (int k = 0; k < o.keyspace; ++k) {
      std::vector<Version> versions = cluster.storage(srv)->Get(KeyName(k));
      if (versions.empty()) continue;
      std::vector<std::string> values;
      for (const Version& v : versions) values.push_back(v.value);
      std::sort(values.begin(), values.end());
      state[KeyName(k)] = std::move(values);
    }
    states.push_back(std::move(state));
  }
  // An acked write is covered when still a sibling or causally dominated by
  // a surviving sibling (read-modify-write supersession).
  std::map<std::string, std::vector<Version>> final_versions;
  for (int k = 0; k < o.keyspace; ++k) {
    final_versions[KeyName(k)] =
        cluster.storage(final_members[0])->GetRaw(KeyName(k));
  }
  auto covered = [&](const AckedWrite& w,
                     const std::vector<std::string>& final_values) {
    for (const std::string& v : final_values) {
      if (v == w.value) return true;
    }
    auto vv_it = acked_vv.find(w.value);
    if (vv_it == acked_vv.end()) return false;
    for (const Version& v : final_versions[w.key]) {
      if (v.vv.Descends(vv_it->second)) return true;
    }
    return false;
  };
  rep.conv_checked = true;
  rep.convergence = CheckConvergence(states, acked, covered);

  // The sloppy elastic variant exists to drive hint traffic for the ledger
  // sweep; it claims no session guarantees, so none are recorded.
  if (!(elastic && o.elastic_sloppy)) {
    rep.sess_checked = true;
    rep.session = CheckSessionGuarantees(history);
  }

  rep.hints_stored = cluster.stats().hints_stored;
  rep.hints_delivered = cluster.stats().hints_delivered;
  rep.hints_lost = cluster.stats().hints_lost;
  rep.hints_pending = cluster.pending_hints();
  rep.detector_false_positives = s.sim.metrics().global().CounterFor(
      "resilience.detector.false_positives").value();
  if (elastic) {
    rep.membership_ops = driver.nemesis().stats().membership_ops;
    rep.keys_migrated = cluster.stats().keys_migrated;
    rep.stale_epoch_rejects = cluster.stats().stale_epoch_rejects;
    rep.hints_redirected = cluster.stats().hints_redirected;
  }

  driver.FillCommon(&rep);
  return rep;
}

// --------------------------------------------------------------------------
// Timeline (PNUTS primary-copy) and the edge cache over it.
// --------------------------------------------------------------------------

bool FromCache(const repl::TimelineRead&) { return false; }
bool FromCache(const cache::CachedRead& r) { return r.from_cache; }

/// Timeline bookkeeping shared by the timeline and edge-cache runners: the
/// client-side history, a fork observer over every (key, seqno) a client
/// saw, and the seqno convergence check beneath it.
class TimelineRecorder {
 public:
  TimelineRecorder(SimStack* s, FuzzReport* rep) : s_(s), rep_(rep) {}

  std::vector<RecordedOp> history;

  /// Records a write issued now; returns its completion callback, which
  /// records the outcome and then calls `done`.
  std::function<void(Result<uint64_t>)> Write(int session,
                                              const std::string& key,
                                              const std::string& value,
                                              const Driver::Done& done) {
    const int64_t invoke = s_->sim.Now();
    history.push_back(RecWrite(session, key, value, invoke, invoke,
                               /*acked=*/false));
    return [this, slot = history.size() - 1, done](Result<uint64_t> r) {
      if (r.ok()) {
        RecordedOp& op = history[slot];
        op.acked = true;
        op.response = s_->sim.Now();
        acked_.push_back({op.key, op.value});
        Observe(op.key, *r, op.value);
        ++rep_->writes_acked;
      } else {
        ++rep_->writes_failed;
      }
      done();
    };
  }

  /// Completion callback for a read issued now: records what it returned
  /// (a value at a seqno, or nothing), then calls `done`.
  template <typename ReadResult>
  std::function<void(Result<ReadResult>)> Read(int session,
                                               const std::string& key,
                                               const Driver::Done& done) {
    return [this, session, key, invoke = s_->sim.Now(),
            done](Result<ReadResult> r) {
      if (r.ok()) {
        std::vector<std::string> observed;
        if (r->found) {
          observed.push_back(r->value);
          Observe(key, r->seqno, r->value);
        }
        history.push_back(RecRead(session, key, std::move(observed), invoke,
                                  s_->sim.Now(), FromCache(*r)));
        ++rep_->reads_ok;
      } else {
        ++rep_->reads_failed;
      }
      done();
    };
  }

  /// Fork-freedom is checked as the run goes; convergence is only promised
  /// when the schedule dropped no messages (replication is fire-and-forget).
  /// Replicas must then agree on per-key seqnos, and an acked write is
  /// covered when the final timeline position is at least its own.
  void Finish(repl::TimelineCluster* cluster,
              const std::vector<sim::NodeId>& servers, int keyspace) {
    rep_->fork_checked = true;
    rep_->conv_checked = true;
    rep_->conv_applicable = s_->net.messages_dropped() == 0;
    if (!rep_->conv_applicable) return;
    std::vector<ReplicaState> states;
    for (sim::NodeId srv : servers) {
      ReplicaState state;
      for (int k = 0; k < keyspace; ++k) {
        // Synchronous local read through the test hook.
        const uint64_t seqno = cluster->VisibleSeqno(srv, KeyName(k));
        if (seqno != 0) state[KeyName(k)] = {std::to_string(seqno)};
      }
      states.push_back(std::move(state));
    }
    std::vector<AckedWrite> acked_seqnos;
    for (const AckedWrite& w : acked_) {
      auto it = seqno_of_.find(w.value);
      if (it == seqno_of_.end()) continue;
      acked_seqnos.push_back({w.key, std::to_string(it->second)});
    }
    auto covered = [](const AckedWrite& w,
                      const std::vector<std::string>& final_values) {
      const uint64_t want = std::stoull(w.value);
      for (const std::string& v : final_values) {
        if (std::stoull(v) >= want) return true;
      }
      return false;
    };
    rep_->convergence = CheckConvergence(states, acked_seqnos, covered);
  }

 private:
  /// (key, seqno) must map to one value for every observer.
  void Observe(const std::string& key, uint64_t seqno,
               const std::string& value) {
    auto [it, inserted] = timeline_.try_emplace({key, seqno}, value);
    if (!inserted && it->second != value) ++rep_->fork_violations;
    seqno_of_.emplace(value, seqno);
  }

  SimStack* s_;
  FuzzReport* rep_;
  std::vector<AckedWrite> acked_;
  std::map<std::string, uint64_t> seqno_of_;  // value -> timeline position
  std::map<std::pair<std::string, uint64_t>, std::string> timeline_;
};

// Timeline: fork-freedom + monotonic reads at a pinned replica.
FuzzReport RunTimeline(const FuzzOptions& o) {
  FuzzReport rep;
  SimStack s(o);
  repl::TimelineOptions topt;
  topt.replication_factor = o.servers;
  topt.crash_amnesia = o.amnesia;
  repl::TimelineCluster cluster(&s.rpc, topt);
  const std::vector<sim::NodeId> servers = cluster.AddServers(o.servers);

  Driver driver(&s, servers, o);

  TimelineRecorder rec(&s, &rep);
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < o.sessions; ++i) nodes.push_back(s.net.AddNode());

  driver.RunWorkload(0x7191e1ULL, [&](int i, int n, Rng* rng,
                                      const Driver::Done& done) {
    const std::string key = driver.Key(rng, o.keyspace);
    if (rng->NextBool(0.5)) {
      const std::string value = UniqueValue(i, n);
      cluster.Write(nodes[i], key, value, rec.Write(i, key, value, done));
    } else {
      // Each session reads at a pinned replica.
      cluster.Read(nodes[i], servers[i % servers.size()], key,
                   repl::TimelineReadLevel::kAny, 0,
                   rec.Read<repl::TimelineRead>(i, key, done));
    }
  });
  driver.Quiesce();

  // Reads at a pinned replica never go backwards: monotonic reads only (a
  // lagging replica legitimately misses the session's own master writes).
  rep.sess_checked = true;
  rep.session = CheckSessionGuarantees(
      rec.history, {.check_ryw = false, .check_mw = false, .check_wfr = false});
  rec.Finish(&cluster, servers, o.keyspace);

  driver.FillCommon(&rep);
  return rep;
}

// Edge cache over timeline: all four session guarantees through the cache.
//
// The lease protocol's claim is strong: a cached entry is served only under
// a live lease, and a write acks only after every lease on its key was
// revoked or expired — so a served entry is never behind ANY acked write on
// its key, and RYW/MR/MW/WFR all hold through the cache with no freshness
// floor. This runner checks exactly that: every read goes through the cache
// tier (hits recorded with from_cache so violations indict the tier), while
// crashes (lease-table amnesia + write fencing) and gray degradation of the
// cache *clients* (a partitioned holder must wait out its own TTL, never
// serve past it) stress the revoke path's edges.
FuzzReport RunEdgeCache(const FuzzOptions& o) {
  FuzzReport rep;
  SimStack s(o);
  repl::TimelineOptions topt;
  topt.replication_factor = o.servers;
  topt.crash_amnesia = o.amnesia;
  // A gated write can legally stall for a full lease TTL (unreachable
  // holder) plus a crash-recovery fence; the per-attempt write timeout must
  // cover that or every contended write would time out at the client.
  topt.rpc_timeout = 1 * kSecond;
  repl::TimelineCluster cluster(&s.rpc, topt);
  const std::vector<sim::NodeId> servers = cluster.AddServers(o.servers);

  cache::EdgeCacheOptions copt;
  copt.lease_ttl = 300 * kMillisecond;
  copt.crash_amnesia = o.amnesia;
  cache::EdgeCacheTier tier(&s.rpc, &cluster, copt);

  TimelineRecorder rec(&s, &rep);
  std::vector<cache::EdgeCacheClient*> clients;
  std::vector<sim::NodeId> client_nodes;
  for (int i = 0; i < o.sessions; ++i) {
    client_nodes.push_back(s.net.AddNode());
    clients.push_back(tier.AddClient(client_nodes.back()));
  }

  Driver driver(&s, servers, o);
  // Clients are fair game for gray degradation (a slow or flaky cache
  // holder is exactly the hard case for revocation) but never for
  // partitions or crashes, which would just silence their workload.
  driver.nemesis().SetGrayTargets(client_nodes);

  driver.RunWorkload(0xedcecaULL, [&](int i, int n, Rng* rng,
                                      const Driver::Done& done) {
    const std::string key = driver.Key(rng, o.keyspace);
    if (rng->NextBool(0.5)) {
      const std::string value = UniqueValue(i, n);
      clients[i]->Put(key, value, rec.Write(i, key, value, done));
    } else {
      clients[i]->Get(key, /*min_seqno=*/0,
                      rec.Read<cache::CachedRead>(i, key, done));
    }
  });
  driver.Quiesce();

  // The whole point: ALL FOUR session guarantees, cached serves included.
  rep.sess_checked = true;
  rep.session = CheckSessionGuarantees(rec.history);
  // Replica convergence beneath the cache: the same claim as timeline.
  rec.Finish(&cluster, servers, o.keyspace);

  rep.cache_hits = tier.stats().hits;
  rep.cache_misses = tier.stats().misses;
  rep.cache_revokes_sent = tier.stats().revokes_sent;
  rep.cache_writes_fenced = tier.stats().writes_fenced;

  driver.FillCommon(&rep);
  return rep;
}

// --------------------------------------------------------------------------
// Causal (COPS): dependency visibility + per-session monotonicity.
// --------------------------------------------------------------------------

FuzzReport RunCausal(const FuzzOptions& o) {
  FuzzReport rep;
  SimStack s(o);
  causal::CausalOptions copt;
  copt.crash_amnesia = o.amnesia;
  causal::CausalCluster cluster(&s.rpc, copt);
  const std::vector<sim::NodeId> dcs = cluster.AddDatacenters(o.servers);

  Driver driver(&s, dcs, o);

  std::vector<CausalRecordedOp> history;
  std::vector<AckedWrite> acked;
  std::map<std::string, causal::WriteId> id_of;  // value -> write id
  std::vector<std::unique_ptr<causal::CausalClient>> clients;
  for (int i = 0; i < o.sessions; ++i) {
    clients.push_back(std::make_unique<causal::CausalClient>(
        &cluster, s.net.AddNode(), dcs[i % dcs.size()]));
  }

  driver.RunWorkload(0xca05a1ULL, [&](int i, int n, Rng* rng,
                                      const Driver::Done& done) {
    causal::CausalClient& client = *clients[i];
    const std::string key = driver.Key(rng, o.keyspace);
    if (rng->NextBool(0.5)) {
      const std::string value = UniqueValue(i, n);
      // The dependency context the client will attach to this write.
      std::vector<causal::Dependency> deps;
      for (const auto& [dep_key, dep_id] : client.context()) {
        deps.push_back({dep_key, dep_id});
      }
      client.Put(key, value,
                 [&, i, key, value, deps, done](Result<causal::WriteId> r) {
                   if (r.ok()) {
                     history.push_back(
                         {CausalRecordedOp::Kind::kWrite, i, key, *r, deps});
                     acked.push_back({key, value});
                     id_of[value] = *r;
                     ++rep.writes_acked;
                   } else {
                     ++rep.writes_failed;
                   }
                   done();
                 });
    } else {
      client.Get(key, [&, i, key, done](Result<causal::CausalRead> r) {
        if (r.ok()) {
          CausalRecordedOp op{CausalRecordedOp::Kind::kRead, i, key, {}, {},
                              r->found};
          if (r->found) {
            op.id = r->id;
            op.deps = r->deps;
            id_of.emplace(r->value, r->id);
          }
          history.push_back(std::move(op));
          ++rep.reads_ok;
        } else {
          ++rep.reads_failed;
        }
        done();
      });
    }
  });
  driver.Quiesce();

  rep.causal_checked = true;
  rep.causal = CheckCausalHistory(history);

  // Geo-replication is fire-and-forget: convergence only when nothing was
  // dropped, and no dep-waiting write died in a crashed buffer (its origin
  // DC applied it, but it will never re-replicate).
  rep.conv_checked = true;
  rep.conv_applicable = s.net.messages_dropped() == 0 &&
                        cluster.stats().pending_dropped == 0;
  if (rep.conv_applicable) {
    std::vector<ReplicaState> states;
    for (sim::NodeId dc : dcs) {
      ReplicaState state;
      for (int k = 0; k < o.keyspace; ++k) {
        const causal::CausalRead r = cluster.LocalRead(dc, KeyName(k));
        if (r.found) state[KeyName(k)] = {r.value};
      }
      states.push_back(std::move(state));
    }
    auto covered = [&](const AckedWrite& w,
                       const std::vector<std::string>& final_values) {
      auto want = id_of.find(w.value);
      if (want == id_of.end()) return true;
      for (const std::string& v : final_values) {
        if (v == w.value) return true;
        auto got = id_of.find(v);
        // Unknown final value: an unacked write that won LWW; with zero
        // drops its id is necessarily newer, so accept conservatively.
        if (got == id_of.end() || want->second < got->second) return true;
      }
      return false;
    };
    rep.convergence = CheckConvergence(states, acked, covered);
  }

  driver.FillCommon(&rep);
  return rep;
}

// --------------------------------------------------------------------------
// State-based CRDTs over randomized full-state gossip.
// --------------------------------------------------------------------------

template <typename State, typename ApplyOp, typename Finalize>
FuzzReport RunCrdt(const FuzzOptions& o, std::vector<State> replicas,
                   const char* gossip_type, ApplyOp apply_op,
                   Finalize finalize) {
  FuzzReport rep;
  SimStack s(o);
  const int n = static_cast<int>(replicas.size());
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(s.net.AddNode());
  const sim::MsgType gossip_msg = s.net.InternType(gossip_type);
  for (int i = 0; i < n; ++i) {
    s.net.RegisterHandler(nodes[i], gossip_msg, [&, i](sim::Message m) {
      replicas[i].Merge(std::move(m.payload).Take<State>());
    });
  }

  // Amnesia model for the harness-owned CRDT replicas: client ops write
  // through a per-replica durable copy (a local op is synchronously
  // journaled, so it survives a crash), while gossip-merged state is
  // volatile. A nemesis crash resets the live replica to its durable copy;
  // peers re-supply the lost merges through gossip after restart.
  std::vector<State> durable;
  struct AmnesiaHook : sim::CrashParticipant {
    std::vector<State>* live = nullptr;
    std::vector<State>* saved = nullptr;
    const std::vector<sim::NodeId>* nodes = nullptr;
    void OnCrash(uint32_t node) override {
      for (size_t i = 0; i < nodes->size(); ++i) {
        if ((*nodes)[i] == node) (*live)[i] = (*saved)[i];
      }
    }
    void OnRestart(uint32_t) override {}
  };
  AmnesiaHook hook;
  if (o.amnesia) {
    durable = replicas;
    hook.live = &replicas;
    hook.saved = &durable;
    hook.nodes = &nodes;
    for (sim::NodeId node : nodes) s.sim.RegisterCrashParticipant(node, &hook);
  }

  // Periodic push gossip: every replica ships full state to a random peer.
  Rng gossip_rng(o.seed ^ 0x90551bULL);
  std::function<void()> gossip = [&] {
    for (int i = 0; i < n; ++i) {
      const int peer =
          (i + 1 + static_cast<int>(gossip_rng.NextBounded(n - 1))) % n;
      s.net.Send(nodes[i], nodes[peer], gossip_msg, replicas[i]);
    }
    s.sim.ScheduleAfter(100 * kMillisecond, gossip);
  };
  s.sim.ScheduleAfter(100 * kMillisecond, gossip);

  Driver driver(&s, nodes, o);

  driver.RunWorkload(0xc4d700ULL, [&](int i, int, Rng* rng,
                                      const Driver::Done& done) {
    // Ops execute locally, but only against a live replica.
    const int replica = i % n;
    if (s.net.IsNodeUp(nodes[replica])) {
      if (o.amnesia) {
        // Commit to the durable copy, then fold into the live replica. All
        // tags/components a replica mints live in its durable copy, so a
        // crash can only lose state that peers still hold.
        apply_op(rng, replica, &durable[replica]);
        replicas[replica].Merge(durable[replica]);
      } else {
        apply_op(rng, replica, &replicas[replica]);
      }
      ++rep.writes_acked;
    } else {
      ++rep.writes_failed;
    }
    done();
  });
  driver.Quiesce([&] {
    for (int i = 1; i < n; ++i) {
      if (!(replicas[i] == replicas[0])) return false;
    }
    return true;
  });

  if (o.amnesia) s.sim.UnregisterCrashParticipant(&hook);
  finalize(&rep, replicas);
  driver.FillCommon(&rep);
  return rep;
}

FuzzReport RunGCounter(const FuzzOptions& o) {
  std::vector<crdt::GCounter> replicas(o.servers);
  uint64_t total = 0;
  auto apply_op = [&total](Rng* rng, int replica, crdt::GCounter* state) {
    const uint64_t amount = rng->NextBounded(3) + 1;
    state->Increment(static_cast<uint32_t>(replica), amount);
    total += amount;
  };
  auto finalize = [&total](FuzzReport* rep,
                           const std::vector<crdt::GCounter>& replicas) {
    std::vector<ReplicaState> states;
    for (const crdt::GCounter& r : replicas) {
      states.push_back({{"counter", {std::to_string(r.Value())}}});
    }
    rep->conv_checked = true;
    rep->convergence = CheckConvergence(states, {});
    rep->crdt_value_checked = true;
    rep->crdt_value_ok = std::all_of(
        replicas.begin(), replicas.end(),
        [&](const crdt::GCounter& r) { return r.Value() == total; });
  };
  return RunCrdt(o, std::move(replicas), "gcounter-gossip", apply_op,
                 finalize);
}

FuzzReport RunOrSet(const FuzzOptions& o) {
  std::vector<crdt::OrSet> replicas;
  for (int i = 0; i < o.servers; ++i) {
    replicas.emplace_back(static_cast<uint32_t>(i));
  }
  std::set<std::string> added;
  std::set<std::string> removed_any;
  auto apply_op = [&](Rng* rng, int, crdt::OrSet* state) {
    const std::string elem =
        "e" + std::to_string(rng->NextBounded(o.keyspace));
    if (rng->NextBool(0.65)) {
      state->Add(elem);
      added.insert(elem);
    } else {
      state->Remove(elem);
      removed_any.insert(elem);
    }
  };
  auto finalize = [&](FuzzReport* rep,
                      const std::vector<crdt::OrSet>& final_replicas) {
    std::vector<ReplicaState> states;
    for (const crdt::OrSet& r : final_replicas) {
      std::vector<std::string> elements = r.Elements();
      std::sort(elements.begin(), elements.end());
      states.push_back({{"set", std::move(elements)}});
    }
    // Elements that were added and never removed anywhere must survive
    // (a remove is the only path to absence in an OR-set).
    std::vector<AckedWrite> must_survive;
    for (const std::string& e : added) {
      if (!removed_any.count(e)) must_survive.push_back({"set", e});
    }
    rep->conv_checked = true;
    rep->convergence = CheckConvergence(states, must_survive);
  };
  return RunCrdt(o, std::move(replicas), "orset-gossip", apply_op, finalize);
}

// --------------------------------------------------------------------------
// The store table: adding a store means one FuzzStore entry and one row.
// --------------------------------------------------------------------------

struct StoreRow {
  FuzzStore store;
  const char* name;  ///< the name ToString prints and ParseFuzzStore reads
  FuzzOptions (*defaults)();  ///< sized to the store's checkers
  /// All four session guarantees are claimed, so a violation breaks the
  /// store's contract instead of being an expected anomaly.
  bool claims_sessions;
  FuzzReport (*run)(const FuzzOptions&);
};

// Per-store sizes (FuzzOptions defaults for everything else).
FuzzOptions Sized(int servers, int sessions, int ops_per_session, int keyspace,
                  sim::Time quiescence_timeout =
                      FuzzOptions{}.quiescence_timeout) {
  return {.servers = servers, .sessions = sessions,
          .ops_per_session = ops_per_session, .keyspace = keyspace,
          .quiescence_timeout = quiescence_timeout};
}

// Live membership changes under a strict quorum, on the "elastic" schedule:
// no partitions or hard crashes (reconfiguration is the fault under test;
// availability through it is the claim), but gray degradation, rolling
// restarts, and add/remove draws all on.
FuzzOptions ElasticDefaults() {
  FuzzOptions o = Sized(4, 3, 25, 4);
  o.nemesis.duration = 25 * kSecond;
  ApplyFuzzProfile("elastic", &o);
  return o;
}

// Session claims: the strict quorum's R+W>N intersection, the timeline's
// reads at a pinned replica, the edge cache's *through the cache* (any
// violation there, cached serve or not, breaks the lease protocol's
// contract), and the elastic quorum's ACROSS reconfiguration boundaries (an
// epoch change may not cost a single guarantee).
const StoreRow kStores[] = {
    // Single register, few ops: the linearizability search is exponential.
    {FuzzStore::kPaxos, "paxos", [] { return Sized(3, 3, 10, 1); }, false,
     RunPaxos},
    {FuzzStore::kQuorumStrict, "quorum-strict",
     [] { return Sized(5, 4, 25, 4); }, true, RunQuorum},
    {FuzzStore::kQuorumWeak, "quorum-weak", [] { return Sized(5, 4, 25, 4); },
     false, RunQuorum},
    {FuzzStore::kTimeline, "timeline",
     [] { return Sized(3, 3, 25, 4, 15 * kSecond); }, true, RunTimeline},
    {FuzzStore::kCausal, "causal",
     [] { return Sized(3, 3, 25, 4, 15 * kSecond); }, false, RunCausal},
    // The keyspace is the or-set's element pool.
    {FuzzStore::kGCounter, "gcounter",
     [] { return Sized(4, 4, 30, 8, 20 * kSecond); }, false, RunGCounter},
    {FuzzStore::kOrSet, "orset",
     [] { return Sized(4, 4, 30, 8, 20 * kSecond); }, false, RunOrSet},
    // Small keyspace so sessions collide on keys and writes actually meet
    // outstanding leases (the revoke path is the thing under test).
    {FuzzStore::kEdgeCache, "edge-cache",
     [] { return Sized(3, 4, 25, 3, 15 * kSecond); }, true, RunEdgeCache},
    {FuzzStore::kQuorumElastic, "quorum-elastic", ElasticDefaults, true,
     RunQuorum},
};

const StoreRow* FindRow(FuzzStore store) {
  for (const StoreRow& row : kStores) {
    if (row.store == store) return &row;
  }
  return nullptr;
}

}  // namespace

bool FuzzReport::MeetsClaims(std::string* why) const {
  auto fail = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (lin_checked && !linearizable && !lin_exhausted) {
    return fail("history is not linearizable");
  }
  if (conv_checked && conv_applicable && !convergence.ok()) {
    return fail("replicas failed to converge / lost an acked write");
  }
  if (causal_checked && !causal.ok()) {
    return fail("causal consistency violated");
  }
  if (fork_checked && fork_violations > 0) {
    return fail("record timeline forked");
  }
  if (crdt_value_checked && !crdt_value_ok) {
    return fail("CRDT value diverged from acked operations");
  }
  // Stores that do not claim session guarantees (the weak quorum) record
  // violations as expected anomalies.
  if (sess_checked && session.total() > 0 && FindRow(store)->claims_sessions) {
    return fail("session guarantee violated");
  }
  return true;
}

const char* ToString(FuzzStore store) {
  const StoreRow* row = FindRow(store);
  return row != nullptr ? row->name : "?";
}

bool ParseFuzzStore(const std::string& name, FuzzStore* store) {
  for (const StoreRow& row : kStores) {
    if (name == row.name) {
      *store = row.store;
      return true;
    }
  }
  return false;
}

std::vector<FuzzStore> AllFuzzStores() {
  std::vector<FuzzStore> stores;
  for (const StoreRow& row : kStores) stores.push_back(row.store);
  return stores;
}

FuzzOptions DefaultFuzzOptions(FuzzStore store, uint64_t seed) {
  const StoreRow* row = FindRow(store);
  EVC_CHECK(row != nullptr);
  FuzzOptions o = row->defaults();
  o.seed = seed;
  o.store = store;
  return o;
}

FuzzReport RunFuzzSeed(const FuzzOptions& options) {
  const StoreRow* row = FindRow(options.store);
  return row != nullptr ? row->run(options) : FuzzReport{};
}

}  // namespace evc::verify

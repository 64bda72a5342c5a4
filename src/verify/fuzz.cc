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
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"
#include "sim/latency.h"
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

std::string KeyName(uint64_t k) { return "k" + std::to_string(k); }

// Paxos: one replicated register, so sessions draw no key.
class PaxosStore : public StoreUnderTest {
 public:
  PaxosStore(sim::Rpc* rpc, const FuzzOptions& o)
      : cluster_(rpc, {}),
        servers_(cluster_.AddServers(o.servers)) {
    cluster_.Start();
    rpc->simulator()->RunFor(2 * kSecond);  // first leader before faults
    for (int i = 0; i < o.sessions; ++i) {
      clients_.push_back(std::make_unique<consensus::PaxosKvClient>(
          &cluster_, rpc->simulator(), rpc->network()->AddNode(), servers_));
    }
  }
  std::vector<sim::NodeId> FaultTargets() const override { return servers_; }
  Op Draw(int session, int n, Rng* rng, const KeyDraw&) override {
    return StoreUnderTest::Draw(session, n, rng, [] { return kRegister; });
  }
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    clients_[session]->Put(
        key, value, [done](Result<uint64_t> r) { done({.ok = r.ok()}); });
  }
  void Get(int session, const std::string& key, Done done) override {
    clients_[session]->Get(key, [done](Result<std::string> r) {
      OpOutcome out{.ok = r.ok() || r.status().IsNotFound()};
      if (r.ok()) out.observed = {*r};
      done(std::move(out));
    });
  }
  bool Settled() override {  // the applied state machines agree
    const uint64_t index0 = cluster_.AppliedIndex(servers_[0]);
    for (sim::NodeId srv : servers_) {
      if (cluster_.AppliedIndex(srv) != index0) return false;
    }
    return index0 > 0;
  }
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    std::vector<ReplicaState> states(servers_.size());
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (auto v = cluster_.AppliedValue(servers_[i], kRegister)) {
        states[i][kRegister] = {*v};
      }
    }
    return states;
  }
  // A register keeps only its last write; linearizability is the check
  // that no acked write was lost.
  bool Covered(const AckedWrite&, const std::vector<std::string>&) override {
    return true;
  }

 private:
  static constexpr const char* kRegister = "reg";
  consensus::PaxosCluster cluster_;
  std::vector<sim::NodeId> servers_;
  std::vector<std::unique_ptr<consensus::PaxosKvClient>> clients_;
};

// Dynamo-style quorum store: strict R+W>N, weak R=W=1, and elastic (R+W>N
// with Paxos-backed live membership changes). In elastic mode the store is
// the nemesis's membership actuator, adding and removing data servers
// mid-workload; refusals (reconfiguration in flight, member floor) are
// reported back so the nemesis logs the op as skipped.
class QuorumStore : public StoreUnderTest, private sim::MembershipActuator {
 public:
  QuorumStore(sim::Rpc* rpc, const FuzzOptions& o)
      : sim_(rpc->simulator()),
        keyspace_(o.keyspace),
        elastic_(o.store == FuzzStore::kQuorumElastic) {
    // The config service's Paxos group runs on its own nodes, OUTSIDE the
    // nemesis targets: its availability is a design assumption (as in the
    // paper's primary-copy protocols); the schedule attacks the data plane
    // through membership churn.
    if (elastic_) {
      paxos_.emplace(rpc, consensus::PaxosOptions{});
      const std::vector<sim::NodeId> paxos_servers = paxos_->AddServers(3);
      paxos_->Start();
      config_.emplace(rpc, &*paxos_, paxos_servers);
    }
    cluster_.emplace(rpc, Config(o));
    servers_ = cluster_->AddServers(o.servers);
    cluster_->StartHintDelivery(500 * kMillisecond);
    cluster_->StartFailureDetection();  // no-op in oracle mode
    cluster_->StartAntiEntropy(250 * kMillisecond);
    if (elastic_) Bootstrap();
    sessions_.resize(o.sessions);
    for (Session& sess : sessions_) sess.node = rpc->network()->AddNode();
  }

  std::vector<sim::NodeId> FaultTargets() const override { return servers_; }
  void Attach(sim::Nemesis* nemesis) override {
    if (elastic_) nemesis->SetMembershipActuator(this);
  }
  // Coordinators are drawn after the key from the CURRENT committed
  // membership, the config service's client-visible contract. A request can
  // still race a commit (pick a server that departs in flight); it then
  // fails cleanly at the epoch fence and counts as unavailable.
  Op Draw(int session, int n, Rng* rng, const KeyDraw& key) override {
    return StoreUnderTest::Draw(session, n, rng, [&] {
      std::string drawn = key();
      const std::vector<sim::NodeId> coords = cluster_->CommittedMembers();
      sessions_[session].coordinator = coords[rng->NextBounded(coords.size())];
      return drawn;
    });
  }
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    Session& sess = sessions_[session];
    cluster_->Put(sess.node, sess.coordinator, key, value, sess.context[key],
                  [this, value, done](Result<Version> r) {
                    if (r.ok()) acked_vv_[value] = r->vv;
                    done({.ok = r.ok()});
                  });
  }
  void Get(int session, const std::string& key, Done done) override {
    Session& sess = sessions_[session];
    auto read = [&sess, key, done](Result<repl::ReadResult> r) {
      OpOutcome out{.ok = r.ok()};
      if (r.ok()) {
        for (const Version& v : r->versions) out.observed.push_back(v.value);
        sess.context[key] = r->context;
      }
      done(std::move(out));
    };
    cluster_->Get(sess.node, sess.coordinator, key, read);
  }
  // Hints drained, replicas identical, and in elastic mode the last
  // reconfiguration fully settled (prepare → catch-up → commit → every
  // server on the committed epoch).
  bool Settled() override {
    return (!elastic_ || !cluster_->Migrating()) &&
           cluster_->pending_hints() == 0 && cluster_->AntiEntropyConverged();
  }
  // Anti-entropy replicates every key to every server, so all states must
  // agree in full, over the FINAL committed membership: departed servers
  // keep stale shadow copies (harmless — nothing routes to them), live-joined
  // servers must hold the full acked history.
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    const std::vector<sim::NodeId> members = cluster_->CommittedMembers();
    std::vector<ReplicaState> states(members.size());
    for (int k = 0; k < keyspace_; ++k) {
      const std::string key = KeyName(k);
      final_versions_[key] = cluster_->storage(members[0])->GetRaw(key);
      for (size_t i = 0; i < members.size(); ++i) {
        std::vector<std::string> values;
        for (const Version& v : cluster_->storage(members[i])->Get(key)) {
          values.push_back(v.value);
        }
        std::sort(values.begin(), values.end());
        if (!values.empty()) states[i][key] = std::move(values);
      }
    }
    return states;
  }
  // An acked write is covered when causally dominated by a surviving
  // sibling (read-modify-write supersession).
  bool Covered(const AckedWrite& w, const std::vector<std::string>&) override {
    auto vv_it = acked_vv_.find(w.value);
    if (vv_it == acked_vv_.end()) return false;
    for (const Version& v : final_versions_[w.key]) {
      if (v.vv.Descends(vv_it->second)) return true;
    }
    return false;
  }
  void Report(FuzzReport* rep) override {
    const repl::DynamoStats& st = cluster_->stats();
    rep->hints_stored = st.hints_stored;
    rep->hints_delivered = st.hints_delivered;
    rep->hints_lost = st.hints_lost;
    rep->hints_pending = cluster_->pending_hints();
    rep->detector_false_positives = sim_->metrics().global().CounterFor(
        "resilience.detector.false_positives").value();
    rep->epochs_committed = st.epochs_committed;
    rep->keys_migrated = st.keys_migrated;
    rep->stale_epoch_rejects = st.stale_epoch_rejects;
    rep->hints_redirected = st.hints_redirected;
  }

 private:
  struct Session {
    sim::NodeId node = 0;
    sim::NodeId coordinator = 0;                   // drawn per op
    std::map<std::string, VersionVector> context;  // last read context
  };

  static repl::QuorumConfig Config(const FuzzOptions& o) {
    const bool elastic = o.store == FuzzStore::kQuorumElastic;
    const bool strict = o.store != FuzzStore::kQuorumWeak;
    repl::QuorumConfig cfg;
    cfg.replication_factor = 3;
    cfg.read_quorum = cfg.write_quorum = strict ? 2 : 1;
    cfg.sloppy = elastic ? o.elastic_sloppy : !strict;
    cfg.read_repair = true;
    cfg.use_hash_ring = elastic;
    cfg.use_oracle_detector = o.use_oracle_detector;
    // Overload profile: full defense stack on. Shedding / failing fast is
    // legal; the claims still have to hold.
    cfg.admission_enabled = cfg.resilience.retry_budget.enabled =
        cfg.resilience.aimd.enabled = o.overload;
    return cfg;
  }

  // Epoch 1 with the initial server set, then the cluster's view-driven
  // membership (which also keeps its gossip mesh in step).
  void Bootstrap() {
    sim_->RunFor(2 * kSecond);  // let the config group elect a leader
    bool bootstrapped = false;
    config_->Bootstrap(servers_, [&](Status st) {
      EVC_CHECK_OK(st);
      bootstrapped = true;
    });
    const sim::Time boot_deadline = sim_->Now() + 30 * kSecond;
    while (!bootstrapped && sim_->Now() < boot_deadline) {
      sim_->RunFor(100 * kMillisecond);
    }
    EVC_CHECK(bootstrapped);
    cluster_->EnableElastic(&*config_);
  }

  // sim::MembershipActuator:
  bool AddNode() override {
    return cluster_->AddServerLive([](Status) {}).ok();
  }
  std::vector<sim::NodeId> RemovableNodes() override {
    std::vector<sim::NodeId> members = cluster_->CommittedMembers();
    if (std::ssize(members) <= repl::kMinElasticMembers) members.clear();
    return members;
  }
  bool RemoveNode(sim::NodeId node) override {
    return cluster_->RemoveServerLive(node, [](Status) {}).ok();
  }

  sim::Simulator* sim_;
  const int keyspace_;
  const bool elastic_;
  std::optional<consensus::PaxosCluster> paxos_;      // elastic: config group
  std::optional<membership::ConfigService> config_;  // elastic only
  std::optional<repl::DynamoCluster> cluster_;
  std::vector<sim::NodeId> servers_;
  std::vector<Session> sessions_;
  std::map<std::string, VersionVector> acked_vv_;  // value -> stored vv
  std::map<std::string, std::vector<Version>> final_versions_;
};

// Timeline (PNUTS primary-copy), and the lease-based edge cache over it. A
// write acks only once every lease on its key was revoked or expired, so
// all four session guarantees hold through the cache. Every edge-cache read
// goes through the tier (hits recorded with from_cache so violations indict
// the tier).
class TimelineStore : public StoreUnderTest {
 public:
  TimelineStore(sim::Rpc* rpc, const FuzzOptions& o)
      : net_(rpc->network()),
        keyspace_(o.keyspace),
        cluster_(rpc, Options(o)),
        servers_(cluster_.AddServers(o.servers)) {
    if (o.store == FuzzStore::kEdgeCache) {
      tier_.emplace(rpc, &cluster_,
                    cache::EdgeCacheOptions{.lease_ttl = 300 * kMillisecond,
                                            .resilience = {}});
    }
    for (int i = 0; i < o.sessions; ++i) {
      nodes_.push_back(net_->AddNode());
      if (tier_) clients_.push_back(tier_->AddClient(nodes_.back()));
    }
  }

  std::vector<sim::NodeId> FaultTargets() const override { return servers_; }
  // Cache clients are fair game for gray degradation (a slow or flaky cache
  // holder is exactly the hard case for revocation) but never for
  // partitions or crashes, which would just silence their workload.
  void Attach(sim::Nemesis* nemesis) override {
    if (tier_) nemesis->SetGrayTargets(nodes_);
  }
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    auto acked = [this, value, done](Result<uint64_t> r) {
      if (r.ok()) seqno_of_[value] = *r;
      done({.ok = r.ok(), .seqno = r.ok() ? *r : 0});
    };
    if (tier_) return clients_[session]->Put(key, value, acked);
    cluster_.Write(nodes_[session], key, value, acked);
  }
  // A timeline session reads at a pinned replica.
  void Get(int session, const std::string& key, Done done) override {
    auto observed = [done](auto r) {
      OpOutcome out{.ok = r.ok()};
      if (r.ok() && r->found) {
        out.observed = {r->value};
        out.seqno = r->seqno;
      }
      if constexpr (requires { r->from_cache; }) {
        out.from_cache = r.ok() && r->from_cache;
      }
      done(std::move(out));
    };
    if (tier_) return clients_[session]->Get(key, /*min_seqno=*/0, observed);
    cluster_.Read(nodes_[session], servers_[session % servers_.size()], key,
                  repl::TimelineReadLevel::kAny, 0, observed);
  }
  // Replication is fire-and-forget, so convergence is only promised when
  // the schedule dropped no messages. Replicas must then agree on per-key
  // seqnos (read synchronously through the test hook).
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    if (net_->messages_dropped() != 0) return std::nullopt;
    std::vector<ReplicaState> states(servers_.size());
    for (size_t i = 0; i < servers_.size(); ++i) {
      for (int k = 0; k < keyspace_; ++k) {
        const uint64_t seqno = cluster_.VisibleSeqno(servers_[i], KeyName(k));
        if (seqno != 0) states[i][KeyName(k)] = {std::to_string(seqno)};
      }
    }
    return states;
  }
  // An acked write is covered when the final timeline position is at least
  // its own.
  bool Covered(const AckedWrite& w,
               const std::vector<std::string>& final_values) override {
    for (const std::string& v : final_values) {
      if (std::stoull(v) >= seqno_of_.at(w.value)) return true;
    }
    return false;
  }
  void Report(FuzzReport* rep) override {
    if (!tier_) return;
    rep->cache_hits = tier_->stats().hits;
    rep->cache_misses = tier_->stats().misses;
    rep->cache_revokes_sent = tier_->stats().revokes_sent;
    rep->cache_writes_fenced = tier_->stats().writes_fenced;
  }

 private:
  static repl::TimelineOptions Options(const FuzzOptions& o) {
    repl::TimelineOptions topt;
    topt.replication_factor = o.servers;
    // A gated write can legally stall for a full lease TTL (unreachable
    // holder) plus a crash-recovery fence; the per-attempt write timeout
    // must cover that, or every contended write would time out.
    if (o.store == FuzzStore::kEdgeCache) topt.rpc_timeout = 1 * kSecond;
    return topt;
  }

  sim::Network* net_;
  const int keyspace_;
  repl::TimelineCluster cluster_;
  std::vector<sim::NodeId> servers_;
  std::optional<cache::EdgeCacheTier> tier_;  // edge-cache only
  std::vector<sim::NodeId> nodes_;            // one client node per session
  std::vector<cache::EdgeCacheClient*> clients_;
  std::map<std::string, uint64_t> seqno_of_;  // acked value -> its seqno
};

// Causal (COPS): one client per session, pinned to a datacenter.
class CausalStore : public StoreUnderTest {
 public:
  CausalStore(sim::Rpc* rpc, const FuzzOptions& o)
      : net_(rpc->network()),
        keyspace_(o.keyspace),
        cluster_(rpc),
        dcs_(cluster_.AddDatacenters(o.servers)) {
    for (int i = 0; i < o.sessions; ++i) {
      clients_.push_back(std::make_unique<causal::CausalClient>(
          &cluster_, net_->AddNode(), dcs_[i % dcs_.size()]));
    }
  }

  std::vector<sim::NodeId> FaultTargets() const override { return dcs_; }
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    causal::CausalClient& client = *clients_[session];
    // The dependency context the client will attach to this write.
    std::vector<causal::Dependency> deps;
    for (const auto& [dep_key, dep_id] : client.context()) {
      deps.push_back({dep_key, dep_id});
    }
    auto acked = [this, value, deps, done](Result<causal::WriteId> r) {
      if (!r.ok()) return done({});
      id_of_[value] = *r;
      done({.ok = true, .id = *r, .deps = deps});
    };
    client.Put(key, value, acked);
  }
  void Get(int session, const std::string& key, Done done) override {
    clients_[session]->Get(key, [this, done](Result<causal::CausalRead> r) {
      OpOutcome out{.ok = r.ok()};
      if (r.ok() && r->found) {
        out.observed = {r->value};
        out.id = r->id;
        out.deps = r->deps;
        id_of_.emplace(r->value, r->id);
      }
      done(std::move(out));
    });
  }
  // Geo-replication is fire-and-forget: convergence only when nothing was
  // dropped, and no dep-waiting write died in a crashed buffer (its origin
  // DC applied it, but it will never re-replicate).
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    if (net_->messages_dropped() != 0 ||
        cluster_.stats().pending_dropped != 0) {
      return std::nullopt;
    }
    std::vector<ReplicaState> states(dcs_.size());
    for (size_t i = 0; i < dcs_.size(); ++i) {
      for (int k = 0; k < keyspace_; ++k) {
        const causal::CausalRead r = cluster_.LocalRead(dcs_[i], KeyName(k));
        if (r.found) states[i][KeyName(k)] = {r.value};
      }
    }
    return states;
  }
  bool Covered(const AckedWrite& w,
               const std::vector<std::string>& final_values) override {
    auto want = id_of_.find(w.value);
    if (want == id_of_.end()) return true;
    for (const std::string& v : final_values) {
      auto got = id_of_.find(v);
      // Unknown final value: an unacked write that won LWW; with zero
      // drops its id is necessarily newer, so accept conservatively.
      if (got == id_of_.end() || want->second < got->second) return true;
    }
    return false;
  }

 private:
  sim::Network* net_;
  const int keyspace_;
  causal::CausalCluster cluster_;
  std::vector<sim::NodeId> dcs_;
  std::vector<std::unique_ptr<causal::CausalClient>> clients_;
  std::map<std::string, causal::WriteId> id_of_;  // value -> write id
};

// State-based CRDTs over randomized full-state gossip. Every session op is
// a write to the session's replica, which draws its own update and names it
// in the written value; a replica's state, sorted, is filed under one key.
std::vector<std::string> Values(const crdt::GCounter& counter) {
  return {std::to_string(counter.Value())};
}
std::vector<std::string> Values(const crdt::OrSet& set) {
  std::vector<std::string> elements = set.Elements();
  std::sort(elements.begin(), elements.end());
  return elements;
}

template <typename State>
class CrdtStore : public StoreUnderTest, private sim::CrashParticipant {
 public:
  CrdtStore(sim::Rpc* rpc, const FuzzOptions& o, const char* key,
            const std::function<State(uint32_t)>& make_replica)
      : net_(rpc->network()),
        key_(key),
        amnesia_(o.amnesia),
        gossip_rng_(o.seed ^ 0x90551bULL) {
    const int n = o.servers;
    const sim::MsgType gossip_msg = net_->InternType(key_ + "-gossip");
    for (int i = 0; i < n; ++i) {
      replicas_.push_back(make_replica(static_cast<uint32_t>(i)));
      nodes_.push_back(net_->AddNode());
      net_->RegisterHandler(nodes_[i], gossip_msg, [this, i](sim::Message m) {
        replicas_[i].Merge(std::move(m.payload).Take<State>());
      });
    }
    // Amnesia model: client ops write through a per-replica durable copy (a
    // local op is journaled synchronously, so it survives a crash), while
    // gossip-merged state is volatile. A crash resets the live replica to
    // its durable copy; peers re-supply the lost merges after restart.
    // Without amnesia the nemesis never reports a crash, and writes skip
    // the durable copy.
    durable_ = replicas_;
    for (sim::NodeId node : nodes_) {
      crash_.Register(net_->simulator(), node, this);
    }
    // Periodic push gossip: every replica ships full state to a random peer.
    gossip_ = [this, n, gossip_msg] {
      for (int i = 0; i < n; ++i) {
        const int peer =
            (i + 1 + static_cast<int>(gossip_rng_.NextBounded(n - 1))) % n;
        net_->Send(nodes_[i], nodes_[peer], gossip_msg, replicas_[i]);
      }
      net_->simulator()->ScheduleAfter(100 * kMillisecond, gossip_);
    };
    net_->simulator()->ScheduleAfter(100 * kMillisecond, gossip_);
  }

  std::vector<sim::NodeId> FaultTargets() const override { return nodes_; }
  // Ops execute locally, but only against a live replica.
  Op Draw(int session, int, Rng* rng, const KeyDraw&) override {
    Op op{.write = true, .key = key_};
    if (Up(session)) op.value = DrawUpdate(rng);
    return op;
  }
  void Put(int session, const std::string&, const std::string& update,
           Done done) override {
    if (!Up(session)) return done({});
    const size_t replica = session % replicas_.size();
    if (amnesia_) {
      // Commit to the durable copy, then fold into the live replica. All
      // tags/components a replica mints live in its durable copy, so a
      // crash can only lose state that peers still hold.
      Apply(update, replica, &durable_[replica]);
      replicas_[replica].Merge(durable_[replica]);
    } else {
      Apply(update, replica, &replicas_[replica]);
    }
    done({.ok = true});
  }
  void Get(int, const std::string&, Done done) override { done({}); }
  bool Settled() override {
    return std::all_of(replicas_.begin(), replicas_.end(),
                       [this](const State& r) { return r == replicas_[0]; });
  }
  std::optional<std::vector<ReplicaState>> Snapshot() override {
    std::vector<ReplicaState> states;
    for (const State& r : replicas_) states.push_back({{key_, Values(r)}});
    return states;
  }

 protected:
  virtual std::string DrawUpdate(Rng* rng) = 0;
  virtual void Apply(const std::string& update, size_t replica,
                     State* state) = 0;

  std::vector<State> replicas_;

 private:
  bool Up(int session) const {
    return net_->IsNodeUp(nodes_[session % nodes_.size()]);
  }
  // sim::CrashParticipant:
  void OnCrash(uint32_t node) override {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] == node) replicas_[i] = durable_[i];
    }
  }
  void OnRestart(uint32_t) override {}

  sim::Network* net_;
  const std::string key_;
  const bool amnesia_;          // writes go through durable_
  std::vector<State> durable_;  // written under amnesia only
  std::vector<sim::NodeId> nodes_;
  Rng gossip_rng_;
  std::function<void()> gossip_;
  sim::CrashRegistrar crash_;
};

/// An update names the amount added; every replica's converged value must
/// equal the sum of acked increments.
class GCounterStore : public CrdtStore<crdt::GCounter> {
 public:
  GCounterStore(sim::Rpc* rpc, const FuzzOptions& o)
      : CrdtStore(rpc, o, "gcounter",
                  [](uint32_t) { return crdt::GCounter(); }) {}
  // A counter keeps no per-increment value; the value check accounts for
  // every acked increment.
  bool Covered(const AckedWrite&, const std::vector<std::string>&) override {
    return true;
  }
  void Report(FuzzReport* rep) override {
    rep->crdt_value_checked = true;
    rep->crdt_value_ok = std::all_of(
        replicas_.begin(), replicas_.end(),
        [this](const crdt::GCounter& r) { return r.Value() == total_; });
  }

 private:
  std::string DrawUpdate(Rng* rng) override {
    return std::to_string(rng->NextBounded(3) + 1);
  }
  void Apply(const std::string& update, size_t replica,
             crdt::GCounter* state) override {
    state->Increment(static_cast<uint32_t>(replica), std::stoull(update));
    total_ += std::stoull(update);
  }

  uint64_t total_ = 0;
};

/// An update is "e<i>" (add) or "-e<i>" (remove), drawn from the keyspace.
class OrSetStore : public CrdtStore<crdt::OrSet> {
 public:
  OrSetStore(sim::Rpc* rpc, const FuzzOptions& o)
      : CrdtStore(rpc, o, "orset", [](uint32_t i) { return crdt::OrSet(i); }),
        keyspace_(o.keyspace) {}
  // An added element must survive unless some replica removed it (a remove
  // is the only path to absence in an OR-set).
  bool Covered(const AckedWrite& w, const std::vector<std::string>&) override {
    return w.value[0] == '-' || removed_any_.contains(w.value);
  }

 private:
  std::string DrawUpdate(Rng* rng) override {
    const std::string elem = "e" + std::to_string(rng->NextBounded(keyspace_));
    return rng->NextBool(0.65) ? elem : "-" + elem;
  }
  void Apply(const std::string& update, size_t, crdt::OrSet* state) override {
    if (update[0] != '-') return state->Add(update);
    state->Remove(update.substr(1));
    removed_any_.insert(update.substr(1));
  }

  const int keyspace_;
  std::set<std::string> removed_any_;
};

// The store table: adding a store means one FuzzStore entry, one adapter
// and one row. Every store claims convergence; these are the other checks.
enum Check : unsigned {
  kLinearizable = 1u << 0,
  kSessions = 1u << 1,        ///< all four session guarantees
  kMonotonicReads = 1u << 2,  ///< monotonic reads only
  /// All four checked, but violations are expected anomalies, not claims.
  kSessionAnomalies = 1u << 3,
  kCausal = 1u << 4,
  kForks = 1u << 5,  ///< one value per (key, seqno)
};

struct StoreRow {
  FuzzStore store;
  const char* name;  ///< the name ToString prints and ParseFuzzStore reads
  FuzzOptions (*defaults)();  ///< sized to the store's checkers
  uint64_t salt;    ///< workload streams: Rng(seed ^ salt).Fork(session)
  unsigned checks;  ///< Check bits
  std::unique_ptr<StoreUnderTest> (*make)(sim::Rpc*, const FuzzOptions&);
};

template <typename Store>
std::unique_ptr<StoreUnderTest> Make(sim::Rpc* rpc, const FuzzOptions& o) {
  return std::make_unique<Store>(rpc, o);
}

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

// Each row claims what fuzz.h's table lists for its store.
const StoreRow kStores[] = {
    // Single register, few ops: the linearizability search is exponential.
    {FuzzStore::kPaxos, "paxos", [] { return Sized(3, 3, 10, 1); }, 0x5e5510,
     kLinearizable, Make<PaxosStore>},
    {FuzzStore::kQuorumStrict, "quorum-strict",
     [] { return Sized(5, 4, 25, 4); }, 0x0d15c0, kSessions, Make<QuorumStore>},
    {FuzzStore::kQuorumWeak, "quorum-weak", [] { return Sized(5, 4, 25, 4); },
     0x0d15c0, kSessionAnomalies, Make<QuorumStore>},
    {FuzzStore::kTimeline, "timeline",
     [] { return Sized(3, 3, 25, 4, 15 * kSecond); }, 0x7191e1,
     kMonotonicReads | kForks, Make<TimelineStore>},
    {FuzzStore::kCausal, "causal",
     [] { return Sized(3, 3, 25, 4, 15 * kSecond); }, 0xca05a1, kCausal,
     Make<CausalStore>},
    // The keyspace is the or-set's element pool.
    {FuzzStore::kGCounter, "gcounter",
     [] { return Sized(4, 4, 30, 8, 20 * kSecond); }, 0xc4d700, 0,
     Make<GCounterStore>},
    {FuzzStore::kOrSet, "orset",
     [] { return Sized(4, 4, 30, 8, 20 * kSecond); }, 0xc4d700, 0,
     Make<OrSetStore>},
    // Small keyspace so sessions collide on keys and writes actually meet
    // outstanding leases (the revoke path is the thing under test).
    {FuzzStore::kEdgeCache, "edge-cache",
     [] { return Sized(3, 4, 25, 3, 15 * kSecond); }, 0xedceca,
     kSessions | kForks, Make<TimelineStore>},
    {FuzzStore::kQuorumElastic, "quorum-elastic", ElasticDefaults, 0x0d15c0,
     kSessions, Make<QuorumStore>},
};

const StoreRow* FindRow(FuzzStore store) {
  for (const StoreRow& row : kStores) {
    if (row.store == store) return &row;
  }
  return nullptr;
}

/// One op as the runner recorded it: a write when issued, a successful read
/// when it completes.
struct Recorded {
  RecordedOp op;
  OpOutcome outcome{};
  bool write() const { return op.kind == RecordedOp::Kind::kWrite; }
  /// The value an acked write wrote or a read returned (null when the
  /// write failed or the read found nothing).
  const std::string* value() const {
    if (write()) return op.acked ? &op.value : nullptr;
    return op.observed.empty() ? nullptr : &op.observed[0];
  }
};

/// The one run loop: unleashes the nemesis, runs the client sessions to
/// completion through the store's adapter while recording one history,
/// heals, then quiesces until the store reports itself settled.
class Driver : public sim::LoadActuator {
 public:
  Driver(SimStack* s, const StoreRow& row, StoreUnderTest* store,
         const FuzzOptions& options, FuzzReport* rep)
      : s_(s),
        row_(row),
        store_(store),
        nemesis_(&s->net, store->FaultTargets(),  // salt "neme"
                 options.seed * 0x9e3779b97f4a7c15ULL + 0x6e656d65ULL,
                 options.amnesia),
        options_(options),
        rep_(rep) {
    // Load faults drive this driver's pacing. Consumes no randomness and is
    // inert unless the schedule draws kFlashCrowd / kLoadSpike.
    nemesis_.SetLoadActuator(this);
    store_->Attach(&nemesis_);
  }

  // sim::LoadActuator:
  void SetLoadFactor(double factor) override { load_factor_ = factor; }
  void ShiftHotKeys() override { ++key_shift_; }

  /// Runs the client sessions as closed loops (session i draws from
  /// Rng(seed ^ salt).Fork(i)) under the nemesis schedule until each has
  /// issued ops_per_session ops or the fault window is over, then heals.
  void RunWorkload() {
    Rng root(options_.seed ^ row_.salt);
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

  void Quiesce() {
    const sim::Time end = s_->sim.Now() + options_.quiescence_timeout;
    // Always give in-flight client ops and first repair rounds a chance.
    s_->sim.RunFor(2 * kSecond);
    while (s_->sim.Now() < end && !store_->Settled()) {
      s_->sim.RunFor(1 * kSecond);
    }
  }

  /// Fills the report fields every store shares, and the export captures.
  void FillCommon() const {
    rep_->store = options_.store;
    rep_->seed = options_.seed;
    rep_->faults_injected = nemesis_.stats().total();
    rep_->membership_ops = nemesis_.stats().membership_ops;
    rep_->messages_dropped = s_->net.messages_dropped();
    if (options_.capture_metrics_json != nullptr) {
      *options_.capture_metrics_json =
          obs::MetricsToJson(s_->sim.metrics()).Dump(2);
    }
    if (options_.capture_trace_csv != nullptr) {
      *options_.capture_trace_csv = obs::TraceToCsv(s_->sim.tracer());
    }
  }

  /// Runs the checks the row claims over the recorded history (of which the
  /// register and causal histories are views) and the store's final state.
  void CheckClaims() {
    if (row_.checks & kLinearizable) {
      // A write that never acked may still take effect, so it stays open for
      // every later time.
      constexpr int64_t kOpen = std::numeric_limits<int64_t>::max();
      std::vector<Operation> ops;
      for (const Recorded& r : history_) {
        const RecordedOp& op = r.op;
        ops.push_back(
            r.write()
                ? Write(op.value, op.invoke, op.acked ? op.response : kOpen)
            : r.value() ? Read(*r.value(), op.invoke, op.response)
                        : ReadNotFound(op.invoke, op.response));
      }
      CheckOptions lin_options;
      lin_options.max_states = 1u << 22;
      const CheckResult lin = CheckLinearizable(ops, lin_options);
      rep_->lin_checked = true;
      rep_->lin_ops = ops.size();
      rep_->linearizable = lin.linearizable;
      rep_->lin_exhausted = lin.exhausted;
    }

    std::vector<AckedWrite> acked;
    for (const Recorded& r : history_) {
      if (r.write() && r.op.acked) acked.push_back({r.op.key, r.op.value});
    }
    const std::optional<std::vector<ReplicaState>> states = store_->Snapshot();
    rep_->conv_checked = true;
    rep_->conv_applicable = states.has_value();
    if (states) {
      rep_->convergence = CheckConvergence(
          *states, acked,
          [this](const AckedWrite& w, const std::vector<std::string>& values) {
            return store_->Covered(w, values);
          });
    }

    // Sloppy quorums trade the session guarantees for availability.
    const bool sloppy =
        options_.store == FuzzStore::kQuorumElastic && options_.elastic_sloppy;
    if ((row_.checks & (kSessions | kMonotonicReads | kSessionAnomalies)) &&
        !sloppy) {
      std::vector<RecordedOp> ops;
      for (const Recorded& r : history_) ops.push_back(r.op);
      const bool all = !(row_.checks & kMonotonicReads);
      rep_->sess_checked = true;
      rep_->session = CheckSessionGuarantees(
          ops, {.check_ryw = all, .check_mw = all, .check_wfr = all});
    }

    if (row_.checks & kCausal) {
      // Acked writes and every read, with the ids and dependencies reported.
      std::vector<CausalRecordedOp> ops;
      for (const Recorded& r : history_) {
        if (r.write() && !r.op.acked) continue;
        ops.push_back({r.write() ? CausalRecordedOp::Kind::kWrite
                                 : CausalRecordedOp::Kind::kRead,
                       r.op.session, r.op.key, r.outcome.id, r.outcome.deps,
                       r.value() != nullptr});
      }
      rep_->causal_checked = true;
      rep_->causal = CheckCausalHistory(ops);
    }

    if (row_.checks & kForks) {
      // Every observation of a (key, seqno) must carry its first value.
      std::map<std::pair<std::string, uint64_t>, std::string> timeline;
      for (const Recorded& r : history_) {
        if (r.value() == nullptr) continue;
        auto [it, inserted] =
            timeline.try_emplace({r.op.key, r.outcome.seqno}, *r.value());
        if (!inserted && it->second != *r.value()) ++rep_->fork_violations;
      }
      rep_->fork_checked = true;
    }
  }

 private:
  /// Sleeps session `i`'s think time, then issues its next op: exponential
  /// gaps targeting ops_per_session ops over the fault window; an active
  /// flash crowd divides the mean gap (multiplies the offered rate).
  void ScheduleNext(int i) {
    const double mean = static_cast<double>(options_.nemesis.duration) /
                        std::max(1, options_.ops_per_session) /
                        std::max(1.0, load_factor_);
    s_->sim.ScheduleAfter(
        static_cast<sim::Time>(rngs_[i].NextExponential(mean)) + 1,
        [this, i] { Issue(i); });
  }

  /// Issues session `i`'s next op through the store and records it.
  void Issue(int i) {
    if (stopped_ || issued_[i] >= options_.ops_per_session) {
      --live_;
      return;
    }
    const int n = issued_[i]++;
    Rng* rng = &rngs_[i];
    // A workload key, rotated by the hot-key shifts applied so far
    // (kLoadSpike); with no shifts, exactly "k<NextBounded(keyspace)>".
    const StoreUnderTest::Op op = store_->Draw(i, n, rng, [&] {
      return KeyName((rng->NextBounded(options_.keyspace) + key_shift_) %
                     static_cast<uint64_t>(std::max(1, options_.keyspace)));
    });
    const int64_t invoke = s_->sim.Now();
    if (op.write) {
      history_.push_back({RecWrite(i, op.key, op.value, invoke, invoke,
                                   /*acked=*/false)});
      store_->Put(i, op.key, op.value,
                  [this, i, slot = history_.size() - 1](OpOutcome out) {
                    RecordedOp& rec = history_[slot].op;
                    rec.acked = out.ok;
                    if (out.ok) rec.response = s_->sim.Now();
                    ++(out.ok ? rep_->writes_acked : rep_->writes_failed);
                    history_[slot].outcome = std::move(out);
                    ScheduleNext(i);
                  });
      return;
    }
    store_->Get(i, op.key, [this, i, key = op.key, invoke](OpOutcome out) {
      ++(out.ok ? rep_->reads_ok : rep_->reads_failed);
      if (out.ok) {
        RecordedOp rec = RecRead(i, key, out.observed, invoke, s_->sim.Now(),
                                 out.from_cache);
        history_.push_back({std::move(rec), std::move(out)});
      }
      ScheduleNext(i);
    });
  }

  SimStack* s_;
  const StoreRow& row_;
  StoreUnderTest* store_;
  sim::Nemesis nemesis_;
  const FuzzOptions& options_;
  FuzzReport* rep_;
  std::vector<Recorded> history_;
  std::vector<Rng> rngs_;    ///< per-session streams
  std::vector<int> issued_;  ///< ops issued per session
  int live_ = 0;
  bool stopped_ = false;
  double load_factor_ = 1.0;  ///< kFlashCrowd multiplier (1.0 = nominal)
  uint64_t key_shift_ = 0;    ///< hot-key rotations applied (kLoadSpike)
};

}  // namespace

StoreUnderTest::Op StoreUnderTest::Draw(int session, int n, Rng* rng,
                                        const KeyDraw& key) {
  Op op{.key = key()};
  op.write = rng->NextBool(0.5);
  // Unique across the run, as the session checker requires.
  if (op.write) {
    op.value = "s" + std::to_string(session) + "." + std::to_string(n);
  }
  return op;
}

bool FuzzReport::MeetsClaims(std::string* why) const {
  auto fail = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (lin_checked && !linearizable && !lin_exhausted) {
    return fail("history is not linearizable");
  }
  if (conv_checked && conv_applicable && !convergence.ok()) {
    return fail(convergence.replicas_agree ? "lost an acked write"
                                           : "replicas failed to converge");
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
  if (sess_checked && session.total() > 0 &&
      (FindRow(store)->checks & (kSessions | kMonotonicReads))) {
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

FuzzReport RunFuzzSeed(const FuzzOptions& o, const StoreFactory& make) {
  const StoreRow* row = FindRow(o.store);
  if (row == nullptr) return {};
  FuzzReport rep;
  SimStack s(o);
  const std::unique_ptr<StoreUnderTest> store =
      make ? make(&s.rpc) : row->make(&s.rpc, o);
  Driver driver(&s, *row, store.get(), o, &rep);
  driver.RunWorkload();
  driver.Quiesce();
  driver.CheckClaims();
  store->Report(&rep);
  driver.FillCommon();
  return rep;
}

}  // namespace evc::verify

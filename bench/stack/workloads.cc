#include "workloads.h"

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "cache/edge_cache.h"
#include "consensus/paxos.h"
#include "host_clock.h"
#include "obs/export.h"
#include "oracle.h"
#include "probes.h"
#include "quantiles.h"
#include "replication/anti_entropy.h"
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "verify/fuzz.h"
#include "workload/workload.h"

namespace evc::stack {

namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Virtual time per sim.run host span in the traced rep.
constexpr sim::Time kSlice = 100 * kMillisecond;
/// Ops whose spans are exported to the trace file (all ops are aggregated).
constexpr uint64_t kEmittedOps = 2000;
/// Seeds per store in the fuzz sweep.
constexpr int kFuzzSeeds = 100;

/// Open-loop load: arrivals every `interval` of virtual time across a
/// `window`, then `drain` for stragglers.
struct LoadSpec {
  sim::Time interval = 0;
  sim::Time window = 0;
  sim::Time drain = 0;
  workload::WorkloadConfig config;
};

/// What the bench remembers about an op while it is in flight.
struct OpInfo {
  bool write = false;
  uint64_t record = 0;
  uint64_t write_id = 0;  ///< 0 for reads
  uint32_t client = 0;    ///< index into the workload's client list
};

/// Generates the open-loop arrivals, times each op from its due time, and
/// feeds the freshness oracle. Arrivals are events at exact virtual due
/// times, so the generator can never run late.
class OpenLoop {
 public:
  /// Issues op `op`; the store adapter calls Complete() exactly once.
  using IssueFn = std::function<void(uint32_t op, const OpInfo& info,
                                     workload::Op&& w)>;

  OpenLoop(sim::Simulator* sim, const LoadSpec& spec, const RepOptions& o,
           std::vector<sim::NodeId> clients, std::string store)
      : sim_(sim),
        spec_(spec),
        trace_(o.trace),
        clients_(std::move(clients)),
        issue_span_(store + ".issue"),
        done_span_(store + ".done"),
        gen_(spec.config, o.seed ^ 0x57ac6ULL),
        oracle_(spec.config.record_count) {
    const double window = std::round(static_cast<double>(spec.window) *
                                     o.scale / static_cast<double>(spec.interval));
    expected_ = std::max<uint64_t>(1, static_cast<uint64_t>(window));
    emit_every_ = std::max<uint64_t>(1, expected_ / kEmittedOps);
    put_latency_.reserve(expected_);
    get_latency_.reserve(expected_);
  }

  workload::WorkloadGenerator& generator() { return gen_; }
  FreshnessOracle& oracle() { return oracle_; }
  sim::NodeId client_node(uint32_t client) const { return clients_[client]; }
  bool Emit(uint32_t op) const {
    return trace_ != nullptr && op % emit_every_ == 0;
  }
  uint64_t writes_issued() const { return writes_issued_; }

  /// Runs every arrival plus the drain, in kSlice steps of virtual time.
  void Run(IssueFn issue) {
    issue_ = std::move(issue);
    t0_ = sim_->Now();
    sim_->ScheduleAt(t0_, [this] { Arrive(0); });
    const sim::Time end =
        t0_ + static_cast<sim::Time>(expected_) * spec_.interval + spec_.drain;
    while (sim_->Now() < end) {
      HostSpan slice(trace_, "sim.run");
      sim_->RunUntil(std::min(sim_->Now() + kSlice, end));
    }
  }

  void Complete(uint32_t op, const OpInfo& info, bool ok,
                std::span<const uint64_t> read_ids) {
    HostSpan span(trace_, done_span_, Emit(op), clients_[info.client], op);
    ++completed_;
    if (!ok) {
      ++failed_;
      return;
    }
    const sim::Time now = sim_->Now();
    const sim::Time due = t0_ + static_cast<sim::Time>(op) * spec_.interval;
    const auto latency = static_cast<uint32_t>(now - due);
    if (info.write) {
      put_latency_.push_back(latency);
      oracle_.WriteAcked(info.record, info.write_id, now);
    } else {
      get_latency_.push_back(latency);
      if (oracle_.ReadIsStale(info.record, due, read_ids)) ++stale_;
    }
  }

  void Fill(RepResult* rep) const {
    rep->expected = expected_;
    rep->issued = issued_;
    rep->attempted = issued_;
    rep->failed = failed_ + (issued_ - completed_);
    rep->stale_reads = stale_;
    auto ms = [](const std::vector<uint32_t>& v, double q) {
      return NearestRank(v, q) / static_cast<double>(kMillisecond);
    };
    rep->metrics["virt_put_p50_ms"] = ms(put_latency_, 0.50);
    rep->metrics["virt_put_p99_ms"] = ms(put_latency_, 0.99);
    rep->metrics["virt_get_p50_ms"] = ms(get_latency_, 0.50);
    rep->metrics["virt_get_p99_ms"] = ms(get_latency_, 0.99);
    rep->metrics["failed_op_ratio"] =
        static_cast<double>(rep->failed) / static_cast<double>(issued_);
    rep->metrics["stale_read_ratio"] =
        get_latency_.empty() ? 0.0
                             : static_cast<double>(stale_) /
                                   static_cast<double>(get_latency_.size());
  }

 private:
  void Arrive(uint64_t i) {
    const auto op_index = static_cast<uint32_t>(i);
    OpInfo info;
    info.client = static_cast<uint32_t>(i % clients_.size());
    workload::Op op;
    {
      HostSpan span(trace_, "workload.next", Emit(op_index),
                    clients_[info.client], op_index);
      op = gen_.Next();
    }
    info.write = op.type != workload::OpType::kRead;
    info.record = RecordOf(op.key);
    if (info.write) {
      info.write_id = WriteIdOf(op.value);
      oracle_.WriteIssued(info.record, info.write_id, sim_->Now());
      ++writes_issued_;
    }
    ++issued_;
    if (i + 1 < expected_) {
      sim_->ScheduleAt(t0_ + static_cast<sim::Time>(i + 1) * spec_.interval,
                       [this, i] { Arrive(i + 1); });
    }
    HostSpan span(trace_, issue_span_, Emit(op_index), clients_[info.client],
                  op_index);
    issue_(op_index, info, std::move(op));
  }

  sim::Simulator* sim_;
  LoadSpec spec_;
  HostTrace* trace_;
  std::vector<sim::NodeId> clients_;
  std::string issue_span_;
  std::string done_span_;
  workload::WorkloadGenerator gen_;
  FreshnessOracle oracle_;
  IssueFn issue_;
  sim::Time t0_ = 0;
  uint64_t expected_ = 0;
  uint64_t emit_every_ = 1;
  uint64_t issued_ = 0;
  uint64_t writes_issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t stale_ = 0;
  std::vector<uint32_t> put_latency_;  ///< virtual us, successful puts
  std::vector<uint32_t> get_latency_;  ///< virtual us, successful gets
};

/// Host CPU marks of one rep: set-up ends where the first arrival is due.
class CpuMarks {
 public:
  CpuMarks() : start_(CpuNowNs()) {}
  void SetupDone() { run_start_ = CpuNowNs(); }
  void RunDone() { run_end_ = CpuNowNs(); }
  /// `ops`: client ops the measured section ran.
  void Fill(uint64_t ops, RepResult* rep) const {
    rep->metrics["setup_s"] = static_cast<double>(run_start_ - start_) / 1e9;
    rep->metrics["host_us_per_op"] =
        static_cast<double>(run_end_ - run_start_) / 1e3 /
        static_cast<double>(std::max<uint64_t>(1, ops));
    rep->metrics["peak_rss_mb"] = PeakRssMb();
  }

 private:
  int64_t start_;
  int64_t run_start_ = 0;
  int64_t run_end_ = 0;
};

uint64_t CounterOf(const obs::MetricsRegistry& registry,
                   const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.value();
}

/// Simulator-wide counters at one instant (start or end of the measured
/// section); per-op metrics are end - start over the ops attempted.
struct Snapshot {
  uint64_t events = 0;
  uint64_t slab_allocs = 0;
  uint64_t slab_large = 0;
  uint64_t msgs = 0;
  uint64_t spans = 0;
  obs::MetricsRegistry merged;

  static Snapshot Take(sim::Simulator& sim, const sim::Network& net) {
    Snapshot s;
    s.events = sim.events_executed();
    s.slab_allocs = sim.slab().allocs();
    s.slab_large = sim.slab().large_allocs();
    s.msgs = net.messages_sent();
    s.spans = sim.tracer().started();
    s.merged = sim.metrics().Merged();
    return s;
  }
};

double PerOp(double value, const RepResult& rep) {
  return value / static_cast<double>(std::max<uint64_t>(1, rep.attempted));
}

/// Per-layer counts every store workload reports (sim, net, rpc,
/// resilience, admission, obs).
void FillCommonCounts(const Snapshot& a, const Snapshot& b, RepResult* rep) {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterOf(b.merged, name) -
                               CounterOf(a.merged, name));
  };
  auto& m = rep->metrics;
  m["sim.events_per_op"] = PerOp(static_cast<double>(b.events - a.events), *rep);
  m["sim.slab_allocs_per_op"] =
      PerOp(static_cast<double>(b.slab_allocs - a.slab_allocs), *rep);
  m["sim.slab_large_allocs_per_op"] =
      PerOp(static_cast<double>(b.slab_large - a.slab_large), *rep);
  m["net.msgs_per_op"] = PerOp(static_cast<double>(b.msgs - a.msgs), *rep);
  m["obs.spans_per_op"] = PerOp(static_cast<double>(b.spans - a.spans), *rep);
  m["rpc.calls_per_op"] = PerOp(delta("rpc.calls"), *rep);
  m["rpc.timeouts_per_op"] = PerOp(delta("rpc.timeouts"), *rep);
  m["rpc.late_replies_per_op"] = PerOp(delta("rpc.late_replies"), *rep);
  m["resilience.attempts_per_op"] = PerOp(delta("resilience.attempts"), *rep);
  m["resilience.retries_per_op"] = PerOp(delta("resilience.retries"), *rep);
  m["resilience.heartbeats_per_op"] =
      PerOp(delta("resilience.heartbeats_sent"), *rep);
  m["admission.admitted_per_op"] = PerOp(delta("admission.admitted"), *rep);
  m["admission.shed_per_op"] = PerOp(
      delta("admission.rejected_queue_full") + delta("admission.shed_sojourn"),
      *rep);
}

/// Traced rep only: the host cost of issuing ops into the store (the
/// `issue_span` spans), of exporting the run's metrics and trace, and the
/// standalone layer probes.
void FillTracedExtras(const sim::Simulator& sim, const LoadSpec& spec,
                      const RepOptions& o, const char* issue_metric,
                      const char* issue_span, RepResult* rep) {
  if (o.trace == nullptr) return;
  rep->metrics[issue_metric] =
      static_cast<double>(o.trace->TotalNs(issue_span)) /
      static_cast<double>(std::max<uint64_t>(1, rep->issued));
  size_t bytes = 0;
  rep->metrics["obs.export_ms"] =
      MedianNs(o.trace, "obs.export", [&] {
        bytes = obs::MetricsToJson(sim.metrics()).Dump().size() +
                obs::TraceToJson(sim.tracer()).Dump().size();
      }) /
      1e6;
  EVC_CHECK(bytes > 0);
  for (const auto& [name, value] :
       RunLayerProbes(spec.config, o.seed, o.trace)) {
    rep->metrics[name] = value;
  }
}

void CheckCommon(RepResult* rep) {
  if (rep->issued != rep->expected) {
    rep->problems.push_back("issued " + std::to_string(rep->issued) +
                            " ops, rate x duration is " +
                            std::to_string(rep->expected));
  }
  if (rep->stale_reads > 0) {
    rep->problems.push_back(std::to_string(rep->stale_reads) +
                            " stale reads from a store that claims none");
  }
}

// ---------------------------------------------------------------------------
// quorum-ae-50: strict Dynamo quorums on a 50-server ring with whole-cluster
// anti-entropy, phi detection, hinted handoff and admission gates.
// ---------------------------------------------------------------------------

RepResult RunQuorumAe50(const RepOptions& o) {
  CpuMarks cpu;
  RepResult rep;
  constexpr int kServers = 50;
  constexpr int kClients = 8;
  LoadSpec spec;
  spec.interval = 500;  // 2000 op/s
  spec.window = 3 * kSecond;
  spec.drain = 2 * kSecond;
  spec.config = workload::WorkloadConfig::YcsbA();
  spec.config.record_count = 100000;

  std::optional<HostSpan> setup(std::in_place, o.trace, "setup");
  sim::Simulator sim(o.seed);
  sim.tracer().set_enabled(o.sim_tracer);
  sim::Network net(&sim, std::make_unique<sim::ExponentialLatency>(
                             500 * sim::kMicrosecond, 300.0));
  sim::Rpc rpc(&net);
  repl::QuorumConfig cfg;
  cfg.replication_factor = 3;
  cfg.read_quorum = 2;
  cfg.write_quorum = 2;
  cfg.sloppy = false;
  cfg.use_hash_ring = true;
  cfg.ring_vnodes = 64;
  cfg.admission_enabled = true;
  repl::DynamoCluster cluster(&rpc, cfg);
  const std::vector<sim::NodeId> servers = cluster.AddServers(kServers);
  cluster.StartHintDelivery(200 * kMillisecond);
  cluster.StartFailureDetection();
  std::vector<ReplicaStorage*> storages;
  for (sim::NodeId s : servers) storages.push_back(cluster.storage(s));
  repl::AntiEntropyOptions ae_options;
  ae_options.interval = 100 * kMillisecond;
  ae_options.peer_usable = [&cluster](sim::NodeId self, sim::NodeId peer) {
    return cluster.PeerUsable(self, peer);
  };
  ae_options.load_of = [&rpc](sim::NodeId self, sim::NodeId peer) {
    return rpc.PeerLoad(self, peer);
  };
  repl::AntiEntropy ae(&net, servers, storages, ae_options);
  ae.Start();
  std::vector<sim::NodeId> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(net.AddNode());
  OpenLoop loop(&sim, spec, o, clients, "dyn");
  // Partition-aware clients: each key's coordinator is the head of its
  // preference list (resolved on first use).
  constexpr sim::NodeId kUnresolved = UINT32_MAX;
  std::vector<sim::NodeId> coordinator(spec.config.record_count, kUnresolved);
  setup.reset();
  cpu.SetupDone();
  const Snapshot start = Snapshot::Take(sim, net);

  loop.Run([&](uint32_t op, const OpInfo& info, workload::Op&& w) {
    sim::NodeId& coord = coordinator[info.record];
    if (coord == kUnresolved) coord = cluster.PreferenceList(w.key)[0];
    const sim::NodeId client = loop.client_node(info.client);
    if (info.write) {
      cluster.Put(client, coord, w.key, std::move(w.value), VersionVector{},
                  [&loop, op, info](Result<Version> r) {
                    loop.Complete(op, info, r.ok(), {});
                  });
    } else {
      cluster.Get(client, coord, w.key,
                  [&loop, op, info](Result<repl::ReadResult> r) {
                    std::vector<uint64_t> ids;
                    if (r.ok()) {
                      for (const Version& v : r->versions) {
                        ids.push_back(WriteIdOf(v.value));
                      }
                    }
                    loop.Complete(op, info, r.ok(), ids);
                  });
    }
  });

  cpu.RunDone();
  loop.Fill(&rep);
  cpu.Fill(rep.attempted, &rep);
  FillCommonCounts(start, Snapshot::Take(sim, net), &rep);
  uint64_t copies = 0;
  uint64_t wal_bytes = 0;
  for (sim::NodeId s : servers) {
    copies += cluster.storage(s)->key_count();
    wal_bytes += cluster.storage(s)->wal()->size_bytes();
  }
  auto& m = rep.metrics;
  m["storage.copies_per_key"] =
      static_cast<double>(copies) /
      static_cast<double>(std::max<uint64_t>(1, loop.oracle().records_written()));
  m["storage.wal_bytes_per_op"] = PerOp(static_cast<double>(wal_bytes), rep);
  m["ae.keys_shipped_per_op"] =
      PerOp(static_cast<double>(ae.stats().keys_shipped), rep);
  m["ae.digests_shipped_per_op"] =
      PerOp(static_cast<double>(ae.stats().digests_shipped), rep);
  m["dyn.read_repairs_per_op"] =
      PerOp(static_cast<double>(cluster.stats().read_repairs), rep);
  if (o.trace != nullptr) {
    // Servers i and i + 25 rarely share a preference list. After
    // whole-cluster gossip both hold every key, so the sync finds equal
    // Merkle roots; with placement-aware gossip it would diff their ranges.
    size_t pair = 0;
    m["ae.probe_ms_per_sync"] = MedianNs(o.trace, "probe.ae_sync", [&] {
                                  ae.SyncPair(pair, pair + kServers / 2);
                                  ++pair;
                                }) /
                                1e6;
  }
  FillTracedExtras(sim, spec, o, "dyn.issue_ns_per_op", "dyn.issue", &rep);
  CheckCommon(&rep);
  return rep;
}

// ---------------------------------------------------------------------------
// paxos-wan-90w: Multi-Paxos on the 3-region WAN matrix, 90% writes.
// ---------------------------------------------------------------------------

RepResult RunPaxosWan90w(const RepOptions& o) {
  CpuMarks cpu;
  RepResult rep;
  constexpr int kServers = 5;
  constexpr int kClients = 16;
  constexpr int kRegions = 3;
  LoadSpec spec;
  spec.interval = 1000;  // 1000 op/s
  spec.window = 10 * kSecond;
  spec.drain = 5 * kSecond;
  spec.config.record_count = 10000;
  spec.config.read_proportion = 0.1;
  spec.config.update_proportion = 0.9;

  std::optional<HostSpan> setup(std::in_place, o.trace, "setup");
  sim::Simulator sim(o.seed);
  sim.tracer().set_enabled(o.sim_tracer);
  auto wan = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  sim::WanMatrixLatency* regions = wan.get();
  sim::Network net(&sim, std::move(wan));
  sim::Rpc rpc(&net);
  consensus::PaxosCluster cluster(&rpc, consensus::PaxosOptions{});
  const std::vector<sim::NodeId> servers = cluster.AddServers(kServers);
  for (int s = 0; s < kServers; ++s) {
    regions->AssignNode(servers[static_cast<size_t>(s)], s % kRegions);
  }
  std::vector<sim::NodeId> clients;
  std::vector<std::unique_ptr<consensus::PaxosKvClient>> paxos_clients;
  for (int c = 0; c < kClients; ++c) {
    const sim::NodeId node = net.AddNode();
    regions->AssignNode(node, c % kRegions);
    clients.push_back(node);
    paxos_clients.push_back(std::make_unique<consensus::PaxosKvClient>(
        &cluster, &sim, node, servers));
  }
  cluster.Start();
  {
    HostSpan election(o.trace, "paxos.election");
    sim.RunFor(2 * kSecond);
  }
  if (!cluster.CurrentLeader().has_value()) {
    rep.problems.push_back("no Paxos leader after the 2 s election");
  }
  OpenLoop loop(&sim, spec, o, clients, "paxos");
  setup.reset();
  cpu.SetupDone();
  const Snapshot start = Snapshot::Take(sim, net);

  loop.Run([&](uint32_t op, const OpInfo& info, workload::Op&& w) {
    consensus::PaxosKvClient& client = *paxos_clients[info.client];
    if (info.write) {
      client.Put(w.key, std::move(w.value),
                 [&loop, op, info](Result<uint64_t> r) {
                   loop.Complete(op, info, r.ok(), {});
                 });
    } else {
      client.Get(w.key, [&loop, op, info](Result<std::string> r) {
        const bool found = r.ok();
        const uint64_t id = found ? WriteIdOf(*r) : 0;
        loop.Complete(op, info, found || r.status().IsNotFound(),
                      std::span<const uint64_t>(&id, found ? 1 : 0));
      });
    }
  });

  cpu.RunDone();
  loop.Fill(&rep);
  cpu.Fill(rep.attempted, &rep);
  const Snapshot end = Snapshot::Take(sim, net);
  FillCommonCounts(start, end, &rep);
  auto& m = rep.metrics;
  m["paxos.log_slots"] = static_cast<double>(cluster.AppliedIndex(servers[0]));
  m["paxos.elections"] =
      static_cast<double>(CounterOf(end.merged, "paxos.elections"));
  m["paxos.proposals_failed_per_op"] =
      PerOp(static_cast<double>(CounterOf(end.merged, "paxos.proposals_failed") -
                                CounterOf(start.merged, "paxos.proposals_failed")),
            rep);
  uint64_t copies = 0;
  const std::vector<uint64_t> written = loop.oracle().WrittenRecords();
  for (uint64_t record : written) {
    const std::string key = loop.generator().KeyFor(record);
    for (sim::NodeId s : servers) {
      copies += cluster.AppliedValue(s, key).has_value() ? 1 : 0;
    }
  }
  m["storage.copies_per_key"] =
      static_cast<double>(copies) /
      static_cast<double>(std::max<size_t>(1, written.size()));
  FillTracedExtras(sim, spec, o, "paxos.issue_ns_per_op", "paxos.issue",
                   &rep);
  CheckCommon(&rep);
  return rep;
}

// ---------------------------------------------------------------------------
// edge-cache-95r: users reach one of 4 edge caches over the network; the
// edges hold 250 ms leases from the timeline masters.
// ---------------------------------------------------------------------------

/// User -> edge request and edge -> user reply (the bench's access link).
struct EdgeRequest {
  uint32_t op = 0;
  OpInfo info;
  std::string key;
  std::string value;  ///< empty for reads
};
struct EdgeReply {
  uint32_t op = 0;
  OpInfo info;
  bool ok = false;
  uint64_t read_id = 0;  ///< write id of the value read; 0 = not found
};

RepResult RunEdgeCache95r(const RepOptions& o) {
  CpuMarks cpu;
  RepResult rep;
  constexpr int kServers = 5;
  constexpr int kEdges = 4;
  constexpr int kUsers = 8;
  LoadSpec spec;
  spec.interval = 50;  // 20000 op/s
  spec.window = 40 * kSecond;
  spec.drain = 2 * kSecond;
  spec.config = workload::WorkloadConfig::YcsbB();
  spec.config.record_count = 1000;

  std::optional<HostSpan> setup(std::in_place, o.trace, "setup");
  sim::Simulator sim(o.seed);
  sim.tracer().set_enabled(o.sim_tracer);
  sim::Network net(&sim, std::make_unique<sim::ExponentialLatency>(
                             2 * kMillisecond, 1000.0));
  sim::Rpc rpc(&net);
  repl::TimelineOptions topt;
  topt.replication_factor = 3;
  // A gated write may wait out a full lease TTL before it applies.
  topt.rpc_timeout = 1 * kSecond;
  repl::TimelineCluster cluster(&rpc, topt);
  const std::vector<sim::NodeId> servers = cluster.AddServers(kServers);
  cache::EdgeCacheOptions copt;
  copt.lease_ttl = 250 * kMillisecond;
  cache::EdgeCacheTier tier(&rpc, &cluster, copt);
  std::vector<cache::EdgeCacheClient*> edges;
  for (int e = 0; e < kEdges; ++e) edges.push_back(tier.AddClient(net.AddNode()));
  std::vector<sim::NodeId> users;
  for (int u = 0; u < kUsers; ++u) users.push_back(net.AddNode());
  OpenLoop loop(&sim, spec, o, users, "user");

  const sim::MsgType t_request = net.InternType("stack.edge_request");
  const sim::MsgType t_reply = net.InternType("stack.edge_reply");
  for (cache::EdgeCacheClient* edge : edges) {
    net.RegisterHandler(edge->node(), t_request, [&, edge](sim::Message msg) {
      EdgeRequest req = std::move(msg.payload).Take<EdgeRequest>();
      const sim::NodeId user = msg.from;
      HostSpan span(o.trace, "cache.issue", loop.Emit(req.op), edge->node(),
                    req.op);
      EdgeReply reply{req.op, req.info, false, 0};
      if (req.info.write) {
        edge->Put(req.key, std::move(req.value),
                  [&net, t_reply, edge, user, reply](Result<uint64_t> r) mutable {
                    reply.ok = r.ok();
                    net.Send(edge->node(), user, t_reply, reply);
                  });
      } else {
        edge->Get(req.key, 0,
                  [&net, t_reply, edge, user,
                   reply](Result<cache::CachedRead> r) mutable {
                    reply.ok = r.ok();
                    if (r.ok() && r->found) reply.read_id = WriteIdOf(r->value);
                    net.Send(edge->node(), user, t_reply, reply);
                  });
      }
    });
  }
  for (sim::NodeId user : users) {
    net.RegisterHandler(user, t_reply, [&loop](sim::Message msg) {
      const EdgeReply reply = std::move(msg.payload).Take<EdgeReply>();
      loop.Complete(reply.op, reply.info, reply.ok,
                    std::span<const uint64_t>(&reply.read_id,
                                              reply.read_id != 0 ? 1 : 0));
    });
  }

  // Preload every record through the masters, so reads meet existing data.
  const sim::NodeId loader = net.AddNode();
  uint64_t preloaded = 0;
  for (uint64_t r = 0; r < spec.config.record_count; ++r) {
    const std::string key = loop.generator().KeyFor(r);
    std::string value = loop.generator().ValueFor(key);
    const uint64_t id = WriteIdOf(value);
    loop.oracle().WriteIssued(r, id, sim.Now());
    cluster.Write(loader, key, std::move(value),
                  [&loop, &sim, &preloaded, r, id](Result<uint64_t> res) {
                    if (!res.ok()) return;
                    loop.oracle().WriteAcked(r, id, sim.Now());
                    ++preloaded;
                  });
  }
  sim.RunFor(1 * kSecond);
  if (preloaded != spec.config.record_count) {
    rep.problems.push_back("preload acked " + std::to_string(preloaded) +
                           " of " + std::to_string(spec.config.record_count) +
                           " records");
  }
  setup.reset();
  cpu.SetupDone();
  const Snapshot start = Snapshot::Take(sim, net);
  const cache::CacheStats cache_start = tier.stats();

  loop.Run([&](uint32_t op, const OpInfo& info, workload::Op&& w) {
    const sim::NodeId user = loop.client_node(info.client);
    const sim::NodeId edge = edges[info.client % kEdges]->node();
    net.Send(user, edge, t_request,
             EdgeRequest{op, info, std::move(w.key), std::move(w.value)});
  });

  cpu.RunDone();
  loop.Fill(&rep);
  cpu.Fill(rep.attempted, &rep);
  FillCommonCounts(start, Snapshot::Take(sim, net), &rep);
  const cache::CacheStats& cs = tier.stats();
  const uint64_t hits = cs.hits - cache_start.hits;
  const uint64_t lookups = hits + (cs.misses - cache_start.misses) +
                           (cs.bypasses - cache_start.bypasses);
  auto& m = rep.metrics;
  m["cache.hit_ratio"] =
      static_cast<double>(hits) /
      static_cast<double>(std::max<uint64_t>(1, lookups));
  m["cache.revokes_per_write"] =
      static_cast<double>(cs.revokes_sent - cache_start.revokes_sent) /
      static_cast<double>(std::max<uint64_t>(1, loop.writes_issued()));
  uint64_t copies = 0;
  const std::vector<uint64_t> written = loop.oracle().WrittenRecords();
  for (uint64_t record : written) {
    const std::string key = loop.generator().KeyFor(record);
    for (sim::NodeId s : servers) {
      copies += cluster.LocalRecord(s, key).found ? 1 : 0;
    }
  }
  m["storage.copies_per_key"] =
      static_cast<double>(copies) /
      static_cast<double>(std::max<size_t>(1, written.size()));
  FillTracedExtras(sim, spec, o, "cache.issue_ns_per_op", "cache.issue",
                   &rep);
  CheckCommon(&rep);
  return rep;
}

// ---------------------------------------------------------------------------
// fuzz-sweep: every store under the default nemesis profile, all checkers.
// ---------------------------------------------------------------------------

RepResult RunFuzzSweep(const RepOptions& o) {
  CpuMarks cpu;
  RepResult rep;
  const int seeds = std::max(
      1, static_cast<int>(std::lround(kFuzzSeeds * o.scale)));
  std::vector<verify::FuzzStore> stores;
  {
    HostSpan setup(o.trace, "setup");
    stores = verify::AllFuzzStores();
  }
  cpu.SetupDone();
  uint64_t ops = 0;
  for (verify::FuzzStore store : stores) {
    const std::string name = verify::ToString(store);
    HostSpan store_span(o.trace, "fuzz." + name);
    const int64_t store_start = CpuNowNs();
    for (int k = 0; k < seeds; ++k) {
      HostSpan seed_span(o.trace, "fuzz.seed");
      const uint64_t seed = o.seed + static_cast<uint64_t>(k);
      const verify::FuzzReport report =
          verify::RunFuzzSeed(verify::DefaultFuzzOptions(store, seed));
      ops += report.writes_acked + report.writes_failed + report.reads_ok +
             report.reads_failed;
      ++rep.attempted;
      std::string why;
      if (!report.MeetsClaims(&why)) {
        ++rep.failed;
        rep.problems.push_back("fuzz claim failed: --store=" + name +
                               " --seed=" + std::to_string(seed) + ": " + why);
      }
    }
    rep.metrics["fuzz." + name + ".cpu_ms"] =
        static_cast<double>(CpuNowNs() - store_start) / 1e6;
  }
  cpu.RunDone();
  rep.issued = rep.expected = rep.attempted;
  cpu.Fill(ops, &rep);  // host cost per recorded client op
  rep.metrics["claim_failures"] = static_cast<double>(rep.failed);
  rep.metrics["fuzz.ops_per_seed"] =
      static_cast<double>(ops) /
      static_cast<double>(std::max<uint64_t>(1, rep.attempted));
  return rep;
}

}  // namespace

obs::Json RepResult::ToJson() const {
  obs::Json::Object values;
  for (const auto& [name, value] : metrics) values[name] = obs::Json(value);
  obs::Json::Array problem_list;
  for (const std::string& p : problems) problem_list.push_back(obs::Json(p));
  obs::Json::Object out;
  out["metrics"] = obs::Json(std::move(values));
  out["attempted"] = obs::Json(attempted);
  out["failed"] = obs::Json(failed);
  out["stale_reads"] = obs::Json(stale_reads);
  out["issued"] = obs::Json(issued);
  out["expected"] = obs::Json(expected);
  out["problems"] = obs::Json(std::move(problem_list));
  return obs::Json(std::move(out));
}

RepResult RepResult::FromJson(const obs::Json& json) {
  RepResult rep;
  auto count = [&json](const char* key) -> uint64_t {
    const obs::Json* v = json.Find(key);
    return v == nullptr ? 0 : static_cast<uint64_t>(v->AsInt());
  };
  if (const obs::Json* values = json.Find("metrics")) {
    for (const auto& [name, value] : values->AsObject()) {
      rep.metrics[name] = value.AsDouble();
    }
  }
  rep.attempted = count("attempted");
  rep.failed = count("failed");
  rep.stale_reads = count("stale_reads");
  rep.issued = count("issued");
  rep.expected = count("expected");
  if (const obs::Json* list = json.Find("problems")) {
    for (const obs::Json& p : list->AsArray()) rep.problems.push_back(p.AsString());
  }
  return rep;
}

RepResult RunRep(Workload workload, const RepOptions& options) {
  switch (workload) {
    case Workload::kQuorumAe50:
      return RunQuorumAe50(options);
    case Workload::kPaxosWan90w:
      return RunPaxosWan90w(options);
    case Workload::kEdgeCache95r:
      return RunEdgeCache95r(options);
    case Workload::kFuzzSweep:
      return RunFuzzSweep(options);
  }
  return RepResult{};
}

}  // namespace evc::stack

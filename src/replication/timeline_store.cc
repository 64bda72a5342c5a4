#include "replication/timeline_store.h"

#include <algorithm>

#include "common/encoding.h"
#include "common/hash.h"

namespace evc::repl {

namespace {
constexpr char kWrite[] = "tl.write";
constexpr char kReplicate[] = "tl.replicate";
constexpr char kRead[] = "tl.read";
}  // namespace

TimelineCluster::TimelineCluster(sim::Rpc* rpc, TimelineOptions options)
    : rpc_(rpc),
      options_(options),
      c_writes_ok_(&Obs(), "tl.writes_ok"),
      c_reads_local_(&Obs(), "tl.reads_local") {
  EVC_CHECK(rpc_ != nullptr);
  m_write_ = rpc_->InternMethod(kWrite);
  m_read_ = rpc_->InternMethod(kRead);
  t_replicate_ = rpc_->network()->InternType(kReplicate);
  EVC_CHECK(options_.replication_factor >= 1);
}

TimelineCluster::~TimelineCluster() = default;

sim::NodeId TimelineCluster::AddServer() {
  auto server = std::make_unique<Server>();
  server->node = rpc_->network()->AddNode();
  RegisterHandlers(server.get());
  by_node_[server->node] = server.get();
  crash_registrar_.Register(rpc_->simulator(), server->node, this);
  servers_.push_back(std::move(server));
  return servers_.back()->node;
}

std::vector<sim::NodeId> TimelineCluster::AddServers(int count) {
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < count; ++i) nodes.push_back(AddServer());
  return nodes;
}

std::vector<sim::NodeId> TimelineCluster::Servers() const {
  std::vector<sim::NodeId> nodes;
  nodes.reserve(servers_.size());
  for (const auto& server : servers_) nodes.push_back(server->node);
  return nodes;
}

TimelineRead TimelineCluster::LocalRecord(sim::NodeId server,
                                          const std::string& key) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  TimelineRead result;
  auto it = s->data.find(key);
  if (it != s->data.end()) {
    result.found = true;
    result.value = it->second.value;
    result.seqno = it->second.seqno;
  }
  return result;
}

TimelineCluster::Server* TimelineCluster::FindServer(sim::NodeId node) {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

obs::MetricsRegistry& TimelineCluster::Obs() {
  return rpc_->simulator()->metrics().global();
}

sim::NodeId TimelineCluster::MasterOf(const std::string& key) const {
  EVC_CHECK(!servers_.empty());
  return servers_[Fnv1a64(key) % servers_.size()]->node;
}

std::vector<sim::NodeId> TimelineCluster::ReplicasOf(
    const std::string& key) const {
  const size_t start = Fnv1a64(key) % servers_.size();
  const size_t n =
      std::min<size_t>(options_.replication_factor, servers_.size());
  std::vector<sim::NodeId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(servers_[(start + i) % servers_.size()]->node);
  }
  return out;
}

void TimelineCluster::RegisterHandlers(Server* server) {
  rpc_->RegisterHandler(
      server->node, m_write_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto write = std::move(req).Take<WriteReq>();
        // Only the master serializes writes. MasterOf changes only when a
        // server joins, so a write routed before a join can reach a server
        // that is no longer the master: it is rejected, not applied.
        if (MasterOf(write.key) != server->node) {
          respond(Status::FailedPrecondition("not the master"));
          return;
        }
        if (!write_gate_) {
          ApplyMasterWrite(server, write.key, std::move(write.value),
                           std::move(respond));
          return;
        }
        // The gate may release asynchronously (revoke fan-out, TTL waits,
        // crash-recovery fences), so re-check at release time that the
        // master is up: a crashed master must not apply or journal anything
        // while down.
        write_gate_(
            server->node, write.key,
            [this, server, key = write.key, value = std::move(write.value),
             respond = std::move(respond)](Status st) mutable {
              if (!st.ok()) {
                respond(std::move(st));
                return;
              }
              if (!rpc_->network()->IsNodeUp(server->node)) {
                respond(Status::Unavailable("master crashed"));
                return;
              }
              ApplyMasterWrite(server, key, std::move(value),
                               std::move(respond));
            });
      });

  rpc_->network()->RegisterHandler(
      server->node, t_replicate_, [this, server](sim::Message msg) {
        auto repl = std::move(msg.payload).Take<ReplicateMsg>();
        Record& rec = server->data[repl.key];
        // Timeline order: never apply an older update over a newer one.
        if (repl.seqno > rec.seqno) {
          rec.value = std::move(repl.value);
          rec.seqno = repl.seqno;
          JournalApply(server, repl.key, rec.value, rec.seqno);
        }
      });

  rpc_->RegisterHandler(
      server->node, m_read_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto read = std::move(req).Take<ReadReq>();
        HandleRead(server, read, std::move(respond));
      });
}

void TimelineCluster::ApplyMasterWrite(Server* server, const std::string& key,
                                       std::string value,
                                       sim::RpcResponder respond) {
  Record& rec = server->data[key];
  rec.value = std::move(value);
  ++rec.seqno;
  JournalApply(server, key, rec.value, rec.seqno);
  ++stats_.writes_ok;
  c_writes_ok_.Inc();
  // Asynchronous in-order propagation to the other replicas. The
  // network may reorder; replicas apply only monotonically.
  for (const sim::NodeId replica : ReplicasOf(key)) {
    if (replica == server->node) continue;
    ReplicateMsg msg;
    msg.key = key;
    msg.value = rec.value;
    msg.seqno = rec.seqno;
    rpc_->network()->Send(server->node, replica, t_replicate_,
                          std::move(msg));
  }
  respond(rec.seqno);
}

void TimelineCluster::HandleRead(Server* server, const ReadReq& req,
                                 sim::RpcResponder respond) {
  const auto level = static_cast<TimelineReadLevel>(req.level);
  const sim::NodeId master = MasterOf(req.key);
  auto it = server->data.find(req.key);
  const uint64_t local_seqno = it == server->data.end() ? 0 : it->second.seqno;

  const bool need_forward =
      server->node != master &&
      (level == TimelineReadLevel::kCritical ||
       (level == TimelineReadLevel::kAtLeast && local_seqno < req.min_seqno));

  if (!need_forward) {
    TimelineRead result;
    if (it != server->data.end()) {
      result.found = true;
      result.value = it->second.value;
      result.seqno = it->second.seqno;
    }
    ++stats_.reads_local;
    c_reads_local_.Inc();
    // Staleness accounting: compare against the master's current seqno (an
    // omniscient-observer metric, not visible to the protocol itself). A
    // kAtLeast read satisfied locally (seqno >= min_seqno) can still lag
    // the master and is every bit as stale as a kAny read; the seed only
    // counted kAny, under-reporting staleness for freshness-floored reads.
    if (level == TimelineReadLevel::kAny ||
        level == TimelineReadLevel::kAtLeast) {
      Server* m = FindServer(master);
      auto mit = m->data.find(req.key);
      if (mit != m->data.end() && mit->second.seqno > local_seqno) {
        ++stats_.stale_reads_served;
        Obs().CounterFor("tl.stale_reads_served").Inc();
      }
    }
    // kAtLeast on the master with min_seqno beyond the master's own seqno:
    // nothing fresher exists, so serve what we have — but surface it.
    if (level == TimelineReadLevel::kAtLeast && server->node == master &&
        local_seqno < req.min_seqno) {
      result.min_seqno_unmet = true;
      ++stats_.atleast_unmet;
      Obs().CounterFor("tl.atleast_unmet").Inc();
    }
    respond(result);
    return;
  }

  // Forward to the master, preserving the requested level: the master then
  // evaluates (and if need be flags) the kAtLeast floor itself. The seed
  // downgraded forwards to kAny, which erased min_seqno before the master
  // could notice it was unmet.
  ++stats_.reads_forwarded;
  Obs().CounterFor("tl.reads_forwarded").Inc();
  ReadReq fwd = req;
  rpc_->Call(server->node, master, m_read_, std::move(fwd),
             options_.rpc_timeout, [respond](Result<sim::Payload> r) {
               if (r.ok()) {
                 respond(std::move(r).value());
               } else {
                 respond(r.status());
               }
             });
}

void TimelineCluster::Write(sim::NodeId client, const std::string& key,
                            std::string value, WriteCallback done) {
  WriteReq req;
  req.key = key;
  req.value = std::move(value);
  rpc_->Call(client, MasterOf(key), m_write_, std::move(req),
             options_.rpc_timeout,
             [this, done = std::move(done)](Result<sim::Payload> r) {
               if (r.ok()) {
                 done(std::move(r).value().Take<uint64_t>());
                 return;
               }
               ++stats_.writes_unavailable;
               Obs().CounterFor("tl.writes_unavailable").Inc();
               done(r.status());
             });
}

void TimelineCluster::Read(sim::NodeId client, sim::NodeId replica,
                           const std::string& key, TimelineReadLevel level,
                           uint64_t min_seqno, ReadCallback done) {
  ReadReq req;
  req.key = key;
  req.level = static_cast<uint8_t>(level);
  req.min_seqno = min_seqno;
  rpc_->Call(client, replica, m_read_, std::move(req), 2 * options_.rpc_timeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<TimelineRead>());
               }
             });
}

namespace {
std::string ApplyRecord(const std::string& key, const std::string& value,
                        uint64_t seqno) {
  std::string rec;
  PutLengthPrefixed(&rec, key);
  PutLengthPrefixed(&rec, value);
  PutVarint64(&rec, seqno);
  return rec;
}
}  // namespace

void TimelineCluster::JournalApply(Server* server, const std::string& key,
                                   const std::string& value, uint64_t seqno) {
  if (!options_.durable) return;
  server->wal.Append(ApplyRecord(key, value, seqno));
  if (!server->wal.CheckpointDue()) return;
  // Snapshot: the latest record of every key, this one included. Replay
  // reads it like any other prefix of the journal.
  WriteAheadLog snapshot;
  for (const auto& [k, rec] : server->data) {
    snapshot.Append(ApplyRecord(k, rec.value, rec.seqno));
  }
  server->wal.Checkpoint(std::move(snapshot));
  Obs().CounterFor("wal.checkpoints").Inc();
}

void TimelineCluster::OnCrash(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  uint64_t dropped = 0;
  for (const auto& [key, rec] : server->data) {
    dropped += key.size() + rec.value.size();
  }
  Obs().CounterFor("crash.state_dropped_bytes").Inc(dropped);
  server->data.clear();
}

void TimelineCluster::OnRestart(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  std::vector<std::string> records;
  uint64_t valid_prefix = 0;
  EVC_CHECK(server->wal.ReadAll(&records, &valid_prefix).ok());
  server->wal.TruncateTo(valid_prefix);
  for (const std::string& raw : records) {
    Decoder dec(raw);
    std::string key;
    std::string value;
    uint64_t seqno = 0;
    EVC_CHECK(dec.GetLengthPrefixed(&key).ok());
    EVC_CHECK(dec.GetLengthPrefixed(&value).ok());
    EVC_CHECK(dec.GetVarint64(&seqno).ok());
    Record& rec = server->data[key];
    // Same monotonicity rule as live replication.
    if (seqno > rec.seqno) {
      rec.value = std::move(value);
      rec.seqno = seqno;
    }
  }
  Obs().CounterFor("wal.replayed_records").Inc(records.size());
}

uint64_t TimelineCluster::VisibleSeqno(sim::NodeId server,
                                       const std::string& key) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  auto it = s->data.find(key);
  return it == s->data.end() ? 0 : it->second.seqno;
}

const WriteAheadLog& TimelineCluster::JournalOf(sim::NodeId server) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  return s->wal;
}

}  // namespace evc::repl

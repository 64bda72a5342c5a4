#include "causal/causal_store.h"

#include "common/encoding.h"

namespace evc::causal {

namespace {
constexpr char kPut[] = "cc.put";
constexpr char kGet[] = "cc.get";
constexpr char kReplicate[] = "cc.replicate";
// Client put/get RPC timeout.
constexpr sim::Time kRpcTimeout = 500 * sim::kMillisecond;
}  // namespace

CausalCluster::CausalCluster(sim::Rpc* rpc) : rpc_(rpc) {
  EVC_CHECK(rpc_ != nullptr);
  m_put_ = rpc_->InternMethod(kPut);
  m_get_ = rpc_->InternMethod(kGet);
  t_replicate_ = rpc_->network()->InternType(kReplicate);
}

CausalCluster::~CausalCluster() = default;

sim::NodeId CausalCluster::AddDatacenter() {
  auto dc = std::make_unique<Datacenter>();
  dc->node = rpc_->network()->AddNode();
  dc->index = static_cast<uint32_t>(dcs_.size());
  RegisterHandlers(dc.get());
  by_node_[dc->node] = dc.get();
  crash_registrar_.Register(rpc_->simulator(), dc->node, this);
  dcs_.push_back(std::move(dc));
  return dcs_.back()->node;
}

std::vector<sim::NodeId> CausalCluster::AddDatacenters(int count) {
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < count; ++i) nodes.push_back(AddDatacenter());
  return nodes;
}

CausalCluster::Datacenter* CausalCluster::FindDc(sim::NodeId node) {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}
const CausalCluster::Datacenter* CausalCluster::FindDc(
    sim::NodeId node) const {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

obs::MetricsRegistry& CausalCluster::Obs() {
  return rpc_->simulator()->metrics().global();
}

bool CausalCluster::DepsSatisfied(const Datacenter& dc,
                                  const std::vector<Dependency>& deps) const {
  for (const Dependency& dep : deps) {
    auto it = dc.data.find(dep.key);
    if (it == dc.data.end() || it->second.id < dep.id) return false;
  }
  return true;
}

void CausalCluster::ApplyWrite(Datacenter* dc, const ReplicatedWrite& write,
                               bool replaying) {
  // Lamport clock advance so local writes order after everything applied.
  if (write.id.lamport > dc->lamport) dc->lamport = write.id.lamport;
  Record& rec = dc->data[write.key];
  // Convergent conflict handling: total order on (lamport, dc).
  if (rec.id < write.id) {
    rec.value = write.value;
    rec.id = write.id;
    rec.deps = write.deps;
    // Retain in the bounded version history (for get-transactions).
    auto& hist = dc->history[write.key];
    hist.push_back(rec);
    while (hist.size() > kHistoryDepth) hist.pop_front();
    if (!replaying) {
      std::string raw;
      PutLengthPrefixed(&raw, write.key);
      PutLengthPrefixed(&raw, write.value);
      PutVarint64(&raw, write.id.lamport);
      PutVarint64(&raw, write.id.dc);
      PutVarint64(&raw, write.deps.size());
      for (const Dependency& dep : write.deps) {
        PutLengthPrefixed(&raw, dep.key);
        PutVarint64(&raw, dep.id.lamport);
        PutVarint64(&raw, dep.id.dc);
      }
      dc->wal.Append(raw);
    }
  }
}

void CausalCluster::DrainPending(Datacenter* dc) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = dc->pending.begin(); it != dc->pending.end(); ++it) {
      if (!DepsSatisfied(*dc, it->deps)) continue;
      ReplicatedWrite write = std::move(*it);
      dc->pending.erase(it);
      const double waited = static_cast<double>(
          rpc_->simulator()->Now() - write.arrived_at);
      stats_.dep_wait_us.Add(waited);
      Obs().HistogramFor("causal.dep_wait_us").Add(waited);
      ApplyWrite(dc, write);
      progress = true;
      break;  // iterator invalidated; rescan
    }
  }
}

void CausalCluster::RegisterHandlers(Datacenter* dc) {
  rpc_->RegisterHandler(
      dc->node, m_put_,
      [this, dc](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto put = std::move(req).Take<PutReq>();
        // A local put's dependencies are always satisfied locally: the
        // client read them from this very datacenter.
        ++stats_.writes;
        Obs().CounterFor("causal.writes").Inc();
        const WriteId id{++dc->lamport, dc->index};
        ReplicatedWrite write;
        write.key = put.key;
        write.value = std::move(put.value);
        write.id = id;
        write.deps = std::move(put.deps);
        ApplyWrite(dc, write);
        DrainPending(dc);
        // Asynchronous geo-replication with dependency metadata.
        for (auto& peer : dcs_) {
          if (peer->node == dc->node) continue;
          rpc_->network()->Send(dc->node, peer->node, t_replicate_, write);
        }
        respond(id);
      });

  rpc_->network()->RegisterHandler(
      dc->node, t_replicate_, [this, dc](sim::Message msg) {
        auto write = std::move(msg.payload).Take<ReplicatedWrite>();
        write.arrived_at = rpc_->simulator()->Now();
        if (DepsSatisfied(*dc, write.deps)) {
          ++stats_.remote_applied_immediately;
          Obs().CounterFor("causal.remote_applied_immediately").Inc();
          ApplyWrite(dc, write);
          DrainPending(dc);
        } else {
          ++stats_.remote_deferred;
          Obs().CounterFor("causal.remote_deferred").Inc();
          dc->pending.push_back(std::move(write));
        }
      });

  rpc_->RegisterHandler(
      dc->node, m_get_,
      [dc](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto get = std::move(req).Take<GetReq>();
        CausalRead result;
        if (!get.min_id.IsNull()) {
          // GT round 2: the oldest retained version satisfying min_id.
          auto hist_it = dc->history.find(get.key);
          if (hist_it != dc->history.end()) {
            for (const Record& rec : hist_it->second) {
              if (!(rec.id < get.min_id)) {
                result.found = true;
                result.value = rec.value;
                result.id = rec.id;
                result.deps = rec.deps;
                break;
              }
            }
          }
          respond(std::move(result));
          return;
        }
        auto it = dc->data.find(get.key);
        if (it != dc->data.end()) {
          result.found = true;
          result.value = it->second.value;
          result.id = it->second.id;
          result.deps = it->second.deps;
        }
        respond(std::move(result));
      });
}

void CausalCluster::Put(sim::NodeId client, sim::NodeId dc,
                        const std::string& key, std::string value,
                        std::vector<Dependency> deps, PutCallback done) {
  PutReq req;
  req.key = key;
  req.value = std::move(value);
  req.deps = std::move(deps);
  rpc_->Call(client, dc, m_put_, std::move(req), kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<WriteId>());
               }
             });
}

void CausalCluster::Get(sim::NodeId client, sim::NodeId dc,
                        const std::string& key, GetCallback done) {
  GetReq req{key, WriteId{}};
  rpc_->Call(client, dc, m_get_, std::move(req), kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<CausalRead>());
               }
             });
}

void CausalCluster::GetTransaction(sim::NodeId client, sim::NodeId dc,
                                   std::vector<std::string> keys,
                                   GetTransactionCallback done) {
  struct GtState {
    std::vector<std::string> keys;
    std::vector<CausalRead> results;
    int outstanding = 0;
    bool failed = false;
  };
  auto state = std::make_shared<GtState>();
  state->keys = std::move(keys);
  state->results.resize(state->keys.size());
  state->outstanding = static_cast<int>(state->keys.size());
  if (state->keys.empty()) {
    done(std::vector<CausalRead>{});
    return;
  }

  auto round2 = [this, client, dc, state, done]() {
    // Ceiling per requested key: the newest version any returned
    // dependency names.
    std::map<std::string, WriteId> required;
    for (size_t i = 0; i < state->keys.size(); ++i) {
      required[state->keys[i]] = WriteId{};
    }
    for (const CausalRead& r : state->results) {
      if (!r.found) continue;
      for (const Dependency& dep : r.deps) {
        auto it = required.find(dep.key);
        if (it != required.end() && it->second < dep.id) {
          it->second = dep.id;
        }
      }
    }
    struct R2State {
      int outstanding = 0;
      bool failed = false;
    };
    auto r2 = std::make_shared<R2State>();
    std::vector<size_t> refetch;
    for (size_t i = 0; i < state->keys.size(); ++i) {
      const WriteId need = required[state->keys[i]];
      if (!need.IsNull() && state->results[i].id < need) {
        refetch.push_back(i);
      }
    }
    if (refetch.empty()) {
      done(std::move(state->results));
      return;
    }
    r2->outstanding = static_cast<int>(refetch.size());
    for (const size_t i : refetch) {
      GetReq req{state->keys[i], required[state->keys[i]]};
      rpc_->Call(client, dc, m_get_, std::move(req), kRpcTimeout,
                 [state, r2, i, done](Result<sim::Payload> r) {
                   if (!r.ok()) {
                     r2->failed = true;
                   } else {
                     state->results[i] =
                         std::move(r).value().Take<CausalRead>();
                   }
                   if (--r2->outstanding == 0) {
                     if (r2->failed) {
                       done(Status::Unavailable("get-transaction round 2"));
                     } else {
                       done(std::move(state->results));
                     }
                   }
                 });
    }
  };

  for (size_t i = 0; i < state->keys.size(); ++i) {
    GetReq req{state->keys[i], WriteId{}};
    rpc_->Call(client, dc, m_get_, std::move(req), kRpcTimeout,
               [state, i, done, round2](Result<sim::Payload> r) {
                 if (!r.ok()) {
                   state->failed = true;
                 } else {
                   state->results[i] =
                       std::move(r).value().Take<CausalRead>();
                 }
                 if (--state->outstanding == 0) {
                   if (state->failed) {
                     done(Status::Unavailable("get-transaction round 1"));
                   } else {
                     round2();
                   }
                 }
               });
  }
}

void CausalCluster::OnCrash(uint32_t node) {
  Datacenter* dc = FindDc(node);
  EVC_CHECK(dc != nullptr);
  // Deferred remote writes die with the buffer; their origin DC already
  // applied them, so this is a real (counted) replication gap until the
  // writer's side re-converges the key some other way.
  stats_.pending_dropped += dc->pending.size();
  Obs().CounterFor("causal.pending_dropped").Inc(dc->pending.size());
  uint64_t dropped = 0;
  for (const auto& [key, rec] : dc->data) {
    dropped += key.size() + rec.value.size();
  }
  for (const ReplicatedWrite& w : dc->pending) {
    dropped += w.key.size() + w.value.size();
  }
  Obs().CounterFor("crash.state_dropped_bytes").Inc(dropped);
  dc->data.clear();
  dc->history.clear();
  dc->pending.clear();
  dc->lamport = 0;
}

void CausalCluster::OnRestart(uint32_t node) {
  Datacenter* dc = FindDc(node);
  EVC_CHECK(dc != nullptr);
  std::vector<std::string> records;
  uint64_t valid_prefix = 0;
  EVC_CHECK(dc->wal.ReadAll(&records, &valid_prefix).ok());
  dc->wal.TruncateTo(valid_prefix);
  for (const std::string& raw : records) {
    Decoder dec(raw);
    ReplicatedWrite write;
    uint64_t dc_id = 0;
    uint64_t dep_count = 0;
    EVC_CHECK(dec.GetLengthPrefixed(&write.key).ok());
    EVC_CHECK(dec.GetLengthPrefixed(&write.value).ok());
    EVC_CHECK(dec.GetVarint64(&write.id.lamport).ok());
    EVC_CHECK(dec.GetVarint64(&dc_id).ok());
    write.id.dc = static_cast<uint32_t>(dc_id);
    EVC_CHECK(dec.GetVarint64(&dep_count).ok());
    for (uint64_t i = 0; i < dep_count; ++i) {
      Dependency dep;
      uint64_t dep_dc = 0;
      EVC_CHECK(dec.GetLengthPrefixed(&dep.key).ok());
      EVC_CHECK(dec.GetVarint64(&dep.id.lamport).ok());
      EVC_CHECK(dec.GetVarint64(&dep_dc).ok());
      dep.id.dc = static_cast<uint32_t>(dep_dc);
      write.deps.push_back(std::move(dep));
    }
    // Replay restores data, history, and the Lamport clock (the advance in
    // ApplyWrite); the journal holds applied writes only, so dependency
    // checks are unnecessary here.
    ApplyWrite(dc, write, /*replaying=*/true);
  }
  Obs().CounterFor("wal.replayed_records").Inc(records.size());
}

CausalRead CausalCluster::LocalRead(sim::NodeId dc,
                                    const std::string& key) const {
  const Datacenter* d = FindDc(dc);
  EVC_CHECK(d != nullptr);
  CausalRead result;
  auto it = d->data.find(key);
  if (it != d->data.end()) {
    result.found = true;
    result.value = it->second.value;
    result.id = it->second.id;
    result.deps = it->second.deps;
  }
  return result;
}

size_t CausalCluster::PendingAt(sim::NodeId dc) const {
  const Datacenter* d = FindDc(dc);
  EVC_CHECK(d != nullptr);
  return d->pending.size();
}

bool CausalCluster::Converged(const std::string& key) const {
  WriteId id;
  bool first = true;
  for (const auto& dc : dcs_) {
    auto it = dc->data.find(key);
    const WriteId here = it == dc->data.end() ? WriteId{} : it->second.id;
    if (first) {
      id = here;
      first = false;
    } else if (!(here == id)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// CausalClient
// ---------------------------------------------------------------------------

void CausalClient::Put(const std::string& key, std::string value,
                       CausalCluster::PutCallback done) {
  std::vector<Dependency> deps;
  deps.reserve(context_.size());
  for (const auto& [dep_key, id] : context_) {
    deps.push_back(Dependency{dep_key, id});
  }
  cluster_->Put(client_node_, local_dc_, key, std::move(value),
                std::move(deps), [this, key, done](Result<WriteId> r) {
                  if (r.ok()) {
                    // Nearest-dependency collapse: the new write transitively
                    // dominates everything in the old context.
                    context_.clear();
                    context_[key] = *r;
                  }
                  done(std::move(r));
                });
}

void CausalClient::Get(const std::string& key,
                       CausalCluster::GetCallback done) {
  cluster_->Get(client_node_, local_dc_, key,
                [this, key, done](Result<CausalRead> r) {
                  if (r.ok() && r->found) {
                    auto it = context_.find(key);
                    if (it == context_.end() || it->second < r->id) {
                      context_[key] = r->id;
                    }
                  }
                  done(std::move(r));
                });
}

}  // namespace evc::causal

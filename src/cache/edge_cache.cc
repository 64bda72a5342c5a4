#include "cache/edge_cache.h"

#include <algorithm>
#include <utility>

#include "sim/simulator.h"

namespace evc::cache {

namespace {
// Revoke RPCs in flight at once per gated write (fan-out bound).
constexpr int kMaxRevokeFanout = 8;
// Client-side timeout for a read-through to the master.
constexpr sim::Time kReadTimeout = 500 * sim::kMillisecond;
}  // namespace

// ---------------------------------------------------------------------------
// EdgeCacheClient

EdgeCacheClient::EdgeCacheClient(EdgeCacheTier* tier, sim::NodeId node)
    : tier_(tier), node_(node) {}

void EdgeCacheClient::Get(const std::string& key, uint64_t min_seqno,
                          GetCallback done) {
  const sim::Time now = tier_->rpc_->simulator()->Now();
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.expiry <= now) {
    // Lease ran out; the copy may not outlive it.
    cache_.erase(it);
    it = cache_.end();
  }
  if (it != cache_.end() && it->second.seqno >= min_seqno) {
    const Entry& e = it->second;
    ++tier_->stats_.hits;
    tier_->c_hits_->Inc();
    tier_->h_hit_age_us_->Add(static_cast<double>(now - e.fetched_at));
    CachedRead out;
    out.found = e.found;
    out.value = e.value;
    out.seqno = e.seqno;
    out.from_cache = true;
    out.fetched_at = e.fetched_at;
    done(std::move(out));
    return;
  }
  if (it != cache_.end()) {
    // Live lease, but below the caller's freshness floor.
    ++tier_->stats_.bypasses;
  } else {
    ++tier_->stats_.misses;
    tier_->c_misses_->Inc();
  }
  const sim::NodeId master = tier_->cluster_->MasterOf(key);
  tier_->rpc_->Call(
      node_, master, tier_->m_read_,
      EdgeCacheTier::CacheReadReq{key, min_seqno}, kReadTimeout,
      [this, key, done = std::move(done)](Result<sim::Payload> r) {
        if (!r.ok()) {
          done(r.status());
          return;
        }
        auto reply = std::move(*r).Take<EdgeCacheTier::CacheReadReply>();
        const sim::Time now = tier_->rpc_->simulator()->Now();
        if (reply.granted) {
          // A reply whose lease id is at or below the revoked floor was
          // overtaken in flight by a revoke: return its value, never cache
          // it (the revoking write may already have acked).
          auto fit = revoked_floor_.find(key);
          const uint64_t floor =
              fit == revoked_floor_.end() ? 0 : fit->second;
          if (reply.lease.id > floor) {
            Entry e;
            e.found = reply.found;
            e.value = reply.value;
            e.seqno = reply.seqno;
            e.lease_id = reply.lease.id;
            e.expiry = reply.lease.expiry;
            e.fetched_at = now;
            cache_[key] = std::move(e);
          }
        }
        CachedRead out;
        out.found = reply.found;
        out.value = std::move(reply.value);
        out.seqno = reply.seqno;
        out.from_cache = false;
        out.fetched_at = now;
        out.min_seqno_unmet = reply.min_seqno_unmet;
        done(std::move(out));
      });
}

void EdgeCacheClient::Put(const std::string& key, std::string value,
                          repl::TimelineCluster::WriteCallback done) {
  tier_->cluster_->Write(
      node_, key, std::move(value),
      [this, key, done = std::move(done)](Result<uint64_t> r) {
        if (r.ok()) {
          // Belt over the revoke path: never keep a copy older than a write
          // this same client saw acked (read-your-writes from the cache).
          auto it = cache_.find(key);
          if (it != cache_.end() && it->second.seqno < *r) cache_.erase(it);
        }
        done(std::move(r));
      });
}

void EdgeCacheClient::HandleRevoke(const std::string& key, uint64_t lease_id) {
  ++tier_->stats_.revokes_received;
  uint64_t& floor = revoked_floor_[key];
  floor = std::max(floor, lease_id);
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.lease_id <= lease_id) cache_.erase(it);
}

uint64_t EdgeCacheClient::CachedSeqno(const std::string& key) const {
  auto it = cache_.find(key);
  if (it == cache_.end()) return 0;
  if (it->second.expiry <= tier_->rpc_->simulator()->Now()) return 0;
  return it->second.seqno;
}

// ---------------------------------------------------------------------------
// EdgeCacheTier

EdgeCacheTier::EdgeCacheTier(sim::Rpc* rpc, repl::TimelineCluster* cluster,
                             EdgeCacheOptions options)
    : rpc_(rpc), cluster_(cluster), options_(options) {
  EVC_CHECK(rpc_ != nullptr);
  EVC_CHECK(cluster_ != nullptr);
  EVC_CHECK(options_.lease_ttl > 0);
  m_read_ = rpc_->InternMethod("cache.read");
  m_revoke_ = rpc_->InternMethod("cache.revoke");
  obs::MetricsRegistry& g = rpc_->simulator()->metrics().global();
  c_hits_ = &g.CounterFor("cache.hits");
  c_misses_ = &g.CounterFor("cache.misses");
  c_grants_ = &g.CounterFor("cache.grants");
  c_revokes_sent_ = &g.CounterFor("cache.revokes_sent");
  c_revokes_expired_ = &g.CounterFor("cache.revokes_expired");
  c_writes_gated_ = &g.CounterFor("cache.writes_gated");
  c_writes_fenced_ = &g.CounterFor("cache.writes_fenced");
  h_hit_age_us_ = &g.HistogramFor("cache.hit_age_us");
  for (sim::NodeId node : cluster_->Servers()) AttachServer(node);
  cluster_->SetWriteGate([this](sim::NodeId master, const std::string& key,
                                std::function<void(Status)> release) {
    GateWrite(master, key, std::move(release));
  });
}

EdgeCacheTier::~EdgeCacheTier() { cluster_->SetWriteGate(nullptr); }

void EdgeCacheTier::AttachServer(sim::NodeId node) {
  auto st = std::make_unique<ServerState>(options_.lease_ttl);
  st->node = node;
  // Deterministic per-node jitter stream for the revoke fan-out.
  const uint64_t seed =
      0x1ea5e5ULL ^ (uint64_t{node} + 1) * 0x9e3779b97f4a7c15ULL;
  st->resilient = std::make_unique<resilience::ResilientRpc>(
      rpc_, node, options_.resilience, seed);
  ServerState* raw = st.get();
  rpc_->RegisterHandler(
      node, m_read_,
      [this, raw](sim::NodeId from, sim::Payload req,
                  sim::RpcResponder respond) {
        HandleCacheRead(raw, from, std::move(req).Take<CacheReadReq>(),
                        std::move(respond));
      });
  crash_registrar_.Register(rpc_->simulator(), node, this);
  servers_[node] = std::move(st);
}

EdgeCacheClient* EdgeCacheTier::AddClient(sim::NodeId node) {
  EVC_CHECK(servers_.find(node) == servers_.end());
  EVC_CHECK(clients_.find(node) == clients_.end());
  auto client = std::unique_ptr<EdgeCacheClient>(
      new EdgeCacheClient(this, node));
  EdgeCacheClient* raw = client.get();
  rpc_->RegisterHandler(
      node, m_revoke_,
      [this, raw](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        RevokeReq r = std::move(req).Take<RevokeReq>();
        raw->HandleRevoke(r.key, r.lease_id);
        // Always ack: revoking an absent entry is an idempotent no-op.
        respond(uint64_t{1});
      });
  crash_registrar_.Register(rpc_->simulator(), node, this);
  clients_[node] = std::move(client);
  return raw;
}

EdgeCacheTier::ServerState* EdgeCacheTier::FindServer(sim::NodeId node) {
  auto it = servers_.find(node);
  return it == servers_.end() ? nullptr : it->second.get();
}

size_t EdgeCacheTier::OutstandingLeases(sim::NodeId server) {
  ServerState* st = FindServer(server);
  EVC_CHECK(st != nullptr);
  return st->registry.size();
}

sim::Time EdgeCacheTier::FenceUntil(sim::NodeId server) {
  ServerState* st = FindServer(server);
  EVC_CHECK(st != nullptr);
  return st->fence_until;
}

void EdgeCacheTier::HandleCacheRead(ServerState* st, sim::NodeId from,
                                    CacheReadReq req,
                                    sim::RpcResponder respond) {
  if (cluster_->MasterOf(req.key) != st->node) {
    // Only the write-serializing replica may grant leases: a non-master
    // grant could not be revoked by a write it never sees.
    respond(Status::FailedPrecondition("not the lease master"));
    return;
  }
  const repl::TimelineRead local = cluster_->LocalRecord(st->node, req.key);
  CacheReadReply reply;
  reply.found = local.found;
  reply.value = local.value;
  reply.seqno = local.seqno;
  reply.min_seqno_unmet = req.min_seqno > local.seqno;
  if (st->writes_pending.find(req.key) != st->writes_pending.end()) {
    // A write's revocation is in flight on this key: serve lease-less so no
    // grant can slip in behind the revoke snapshot (writer liveness).
    ++stats_.grants_suppressed;
  } else {
    reply.granted = true;
    reply.lease =
        st->registry.Grant(req.key, from, rpc_->simulator()->Now());
    ++stats_.grants;
    c_grants_->Inc();
  }
  respond(std::move(reply));
}

void EdgeCacheTier::GateWrite(sim::NodeId master, const std::string& key,
                              std::function<void(Status)> release) {
  ServerState* st = FindServer(master);
  EVC_CHECK(st != nullptr);
  sim::Simulator* sim = rpc_->simulator();
  const sim::Time now = sim->Now();
  if (st->fence_until > now) {
    // Crash-recovery fence: the restarted master forgot its lease table, so
    // it may not ack a write until every pre-crash lease has expired.
    ++stats_.writes_fenced;
    c_writes_fenced_->Inc();
    sim->ScheduleAt(st->fence_until, [this, master, key,
                                      release = std::move(release)]() mutable {
      GateWrite(master, key, std::move(release));
    });
    return;
  }
  auto batch = std::make_shared<RevokeBatch>();
  batch->holders = st->registry.Outstanding(key, now);
  if (batch->holders.empty()) {
    release(Status::OK());
    return;
  }
  ++stats_.writes_gated;
  c_writes_gated_->Inc();
  // Suppress grants until release; survives a master crash (see ServerState).
  ++st->writes_pending[key];
  batch->release = std::move(release);
  Pump(st, key, batch);
}

void EdgeCacheTier::Pump(ServerState* st, const std::string& key,
                         const std::shared_ptr<RevokeBatch>& batch) {
  while (batch->next < batch->holders.size() &&
         batch->inflight < kMaxRevokeFanout) {
    const LeaseHolder holder = batch->holders[batch->next++];
    ++batch->inflight;
    RevokeOne(st, key, holder, batch);
  }
}

void EdgeCacheTier::RevokeOne(ServerState* st, const std::string& key,
                              LeaseHolder holder,
                              std::shared_ptr<RevokeBatch> batch) {
  ++stats_.revokes_sent;
  c_revokes_sent_->Inc();
  resilience::CallOptions co;
  co.attempt_timeout = options_.revoke_timeout;
  co.max_attempts = options_.revoke_attempts;
  // Past the lease's own expiry there is nothing left to revoke.
  co.deadline = holder.lease.expiry;
  st->resilient->Call(
      holder.holder, m_revoke_, RevokeReq{key, holder.lease.id}, co,
      [this, st, key, holder,
       batch = std::move(batch)](Result<sim::Payload> r) {
        --batch->inflight;
        Pump(st, key, batch);
        if (r.ok()) {
          ++stats_.revokes_acked;
          st->registry.Release(key, holder.holder, holder.lease.id);
          Complete(st, key, batch);
          return;
        }
        // Unreachable holder (partition, gray degradation, crash): it
        // cannot serve the entry past its expiry, so waiting the TTL out
        // is as good as an ack.
        ++stats_.revokes_expired;
        c_revokes_expired_->Inc();
        sim::Simulator* sim = rpc_->simulator();
        const sim::Time at = std::max(holder.lease.expiry, sim->Now());
        sim->ScheduleAt(at,
                        [this, st, key, batch] { Complete(st, key, batch); });
      });
}

void EdgeCacheTier::Complete(ServerState* st, const std::string& key,
                             const std::shared_ptr<RevokeBatch>& batch) {
  ++batch->completed;
  if (batch->completed < batch->holders.size()) return;
  auto it = st->writes_pending.find(key);
  EVC_CHECK(it != st->writes_pending.end());
  if (--it->second == 0) st->writes_pending.erase(it);
  batch->release(Status::OK());
}

void EdgeCacheTier::OnCrash(uint32_t node) {
  if (ServerState* st = FindServer(node); st != nullptr) {
    // The lease table is volatile; writes_pending deliberately survives (a
    // pre-crash gate batch still completing must keep grants suppressed).
    st->registry.DropAll();
    return;
  }
  auto it = clients_.find(node);
  if (it != clients_.end()) it->second->cache_.clear();
}

void EdgeCacheTier::OnRestart(uint32_t node) {
  ServerState* st = FindServer(node);
  if (st == nullptr) return;
  // Conservative amnesia rule: every lease granted before the crash expires
  // within one TTL of the crash, which is within one TTL of now.
  st->fence_until =
      std::max(st->fence_until, rpc_->simulator()->Now() + options_.lease_ttl);
}

}  // namespace evc::cache

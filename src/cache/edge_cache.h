// Edge cache tier over the timeline store, with lease-based invalidation.
//
// At millions of clients, most reads must never reach a replica — but a
// cache that silently serves revoked data breaks the very session
// guarantees (RYW/MR) the rest of this repo exists to verify. This tier
// keeps them with the classic Gray & Cheriton lease-callback protocol:
//
//   * read-through with piggybacked grant — a cache miss RPCs the key's
//     MASTER (the one serializing writes), which answers with its record
//     plus a lease {id, expiry = now + ttl}; the client serves subsequent
//     reads from its copy while the lease is unexpired;
//   * revoke-on-write — a write entering the master is held by a write gate
//     (TimelineCluster::SetWriteGate) until every outstanding lease on the
//     key is revoked (client acks a cache.revoke callback and drops the
//     entry) or has expired. Revokes fan out through ResilientRpc with a
//     bounded number in flight, retrying with backoff under an absolute
//     deadline of the lease's own expiry — a partitioned or gray-degraded
//     holder simply runs out its TTL clock while it provably cannot serve
//     the entry past expiry;
//   * grant suppression — while a write is gated on a key, reads are served
//     lease-less (no new lease can slip in behind the revoke snapshot), so
//     writers cannot be live-locked by a read flash crowd;
//   * crash amnesia — the lease table is volatile. A master restart drops
//     it and FENCES writes for one full TTL: every lease granted before the
//     crash has expired by the time the fence lifts, so forgotten holders
//     are still never served stale acks.
//
// Nothing migrates a record's master (TimelineCluster::MasterOf), so the
// registry of the master that granted a lease stays the key's book of
// record: no lease is granted by one master and missed by another.
//
// The payoff is strong: because a write acks only after every lease on its
// key is dead, a served cache entry is never behind an acked write — cached
// reads preserve all four Bayou session guarantees, and the edge-cache fuzz
// profile (verify/fuzz.h kEdgeCache) checks exactly that under crash + gray
// schedules. "Staleness" of a hit is therefore pure entry AGE (now -
// fetched_at), bounded by the lease TTL; the fig10 bench sweeps that bound.
//
// Simulator-only caveat: clients and masters share the simulator's one
// clock. A real deployment must shave bounded clock skew off the client's
// expiry check (serve only until expiry - max_skew).

#ifndef EVC_CACHE_EDGE_CACHE_H_
#define EVC_CACHE_EDGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/lease_registry.h"
#include "replication/timeline_store.h"
#include "resilience/resilient_rpc.h"
#include "sim/rpc.h"

namespace evc::cache {

struct EdgeCacheOptions {
  /// Lease lifetime. Longer = higher hit ratio and staleness bound, slower
  /// writes to contended keys (a dead holder is waited out for up to ttl).
  sim::Time lease_ttl = 500 * sim::kMillisecond;
  /// Per-attempt timeout and attempt cap for one revoke callback; attempts
  /// stop early at the lease's own expiry (deadline propagation).
  sim::Time revoke_timeout = 100 * sim::kMillisecond;
  int revoke_attempts = 4;
  /// Retry/backoff tuning for the revoke fan-out ResilientRpc instances.
  resilience::ResilienceOptions resilience;
};

/// Tier-wide monotonic counters (client + server side pooled).
struct CacheStats {
  uint64_t hits = 0;      ///< served from a live lease
  uint64_t misses = 0;    ///< no entry, or lease expired
  uint64_t bypasses = 0;  ///< live entry below the caller's min_seqno floor
  uint64_t grants = 0;
  uint64_t grants_suppressed = 0;  ///< read served lease-less (write gated)
  uint64_t revokes_sent = 0;
  uint64_t revokes_acked = 0;
  uint64_t revokes_expired = 0;  ///< holder unreachable; TTL waited out
  uint64_t revokes_received = 0;
  uint64_t writes_gated = 0;   ///< writes that met >=1 outstanding lease
  uint64_t writes_fenced = 0;  ///< writes delayed by a crash-recovery fence
};

/// A read served by the cache tier.
struct CachedRead {
  bool found = false;
  std::string value;
  uint64_t seqno = 0;
  bool from_cache = false;    ///< served locally under a live lease
  sim::Time fetched_at = 0;   ///< when the serving copy left the master
  bool min_seqno_unmet = false;  ///< master-authoritative, still below floor
};

class EdgeCacheTier;

/// One client's cache handle. Created via EdgeCacheTier::AddClient (which
/// owns it); all calls must come from events on the owning simulator.
class EdgeCacheClient {
 public:
  using GetCallback = std::function<void(Result<CachedRead>)>;

  /// Serves `key` from the local cache when a live lease covers it and its
  /// seqno is >= `min_seqno` (a session freshness floor; 0 = none), else
  /// reads through to the key's master, installing the piggybacked lease.
  /// A cache hit invokes `done` synchronously.
  void Get(const std::string& key, uint64_t min_seqno, GetCallback done);

  /// Write-through to the master (full revoke-on-write path). On ack, a
  /// cached copy older than the new seqno is dropped.
  void Put(const std::string& key, std::string value,
           repl::TimelineCluster::WriteCallback done);

  sim::NodeId node() const { return node_; }
  size_t entries() const { return cache_.size(); }
  /// Test hook: the seqno cached for `key` under a live lease, 0 if none.
  uint64_t CachedSeqno(const std::string& key) const;

 private:
  friend class EdgeCacheTier;
  struct Entry {
    bool found = false;
    std::string value;
    uint64_t seqno = 0;
    uint64_t lease_id = 0;
    sim::Time expiry = 0;
    sim::Time fetched_at = 0;
  };

  EdgeCacheClient(EdgeCacheTier* tier, sim::NodeId node);
  void HandleRevoke(const std::string& key, uint64_t lease_id);

  EdgeCacheTier* tier_;
  sim::NodeId node_;
  std::map<std::string, Entry> cache_;
  /// Highest revoked lease id per key: an in-flight read reply carrying a
  /// lease at or below the floor arrived after its revoke and must not be
  /// installed (its value is still returned, just not cached).
  std::map<std::string, uint64_t> revoked_floor_;
};

/// The whole tier for one TimelineCluster: per-master lease registries +
/// revoke fan-out on the server side, cache handles on the client side.
/// Construct AFTER the cluster's servers are added; destroy before the
/// cluster (the destructor uninstalls the write gate).
class EdgeCacheTier : private sim::CrashParticipant {
 public:
  EdgeCacheTier(sim::Rpc* rpc, repl::TimelineCluster* cluster,
                EdgeCacheOptions options);
  ~EdgeCacheTier() override;

  EdgeCacheTier(const EdgeCacheTier&) = delete;
  EdgeCacheTier& operator=(const EdgeCacheTier&) = delete;

  /// Registers `node` (a non-server client node) and returns its cache
  /// handle, owned by the tier.
  EdgeCacheClient* AddClient(sim::NodeId node);

  const EdgeCacheOptions& options() const { return options_; }
  const CacheStats& stats() const { return stats_; }

  /// Test hooks.
  size_t OutstandingLeases(sim::NodeId server);
  sim::Time FenceUntil(sim::NodeId server);

 private:
  friend class EdgeCacheClient;

  struct CacheReadReq {
    std::string key;
    uint64_t min_seqno = 0;
  };
  struct CacheReadReply {
    bool found = false;
    std::string value;
    uint64_t seqno = 0;
    bool min_seqno_unmet = false;
    bool granted = false;
    Lease lease;
  };
  struct RevokeReq {
    std::string key;
    uint64_t lease_id = 0;
  };

  struct ServerState {
    sim::NodeId node = 0;
    LeaseRegistry registry;
    /// Gated writes in flight per key; grants are suppressed while > 0.
    /// Deliberately NOT cleared on crash: a pre-crash gate still completing
    /// after restart must keep new grants out until it applies.
    std::map<std::string, int> writes_pending;
    sim::Time fence_until = 0;
    std::unique_ptr<resilience::ResilientRpc> resilient;

    explicit ServerState(sim::Time ttl) : registry(ttl) {}
  };

  /// One gated write's revoke fan-out.
  struct RevokeBatch {
    std::vector<LeaseHolder> holders;
    size_t next = 0;       ///< next holder to revoke
    size_t completed = 0;  ///< holders acked or expired
    int inflight = 0;
    std::function<void(Status)> release;
  };

  void AttachServer(sim::NodeId node);
  ServerState* FindServer(sim::NodeId node);
  void HandleCacheRead(ServerState* st, sim::NodeId from, CacheReadReq req,
                       sim::RpcResponder respond);
  void GateWrite(sim::NodeId master, const std::string& key,
                 std::function<void(Status)> release);
  void Pump(ServerState* st, const std::string& key,
            const std::shared_ptr<RevokeBatch>& batch);
  void RevokeOne(ServerState* st, const std::string& key, LeaseHolder holder,
                 std::shared_ptr<RevokeBatch> batch);
  void Complete(ServerState* st, const std::string& key,
                const std::shared_ptr<RevokeBatch>& batch);

  // CrashParticipant: a server drops its (volatile) lease table, a client
  // its cache; a restarted server fences writes for one ttl.
  void OnCrash(uint32_t node) override;
  void OnRestart(uint32_t node) override;

  sim::Rpc* rpc_;
  repl::TimelineCluster* cluster_;
  EdgeCacheOptions options_;
  sim::MethodId m_read_ = 0;
  sim::MethodId m_revoke_ = 0;
  std::map<sim::NodeId, std::unique_ptr<ServerState>> servers_;
  std::map<sim::NodeId, std::unique_ptr<EdgeCacheClient>> clients_;
  CacheStats stats_;
  // Cached cache.* instruments (global registry).
  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_grants_ = nullptr;
  obs::Counter* c_revokes_sent_ = nullptr;
  obs::Counter* c_revokes_expired_ = nullptr;
  obs::Counter* c_writes_gated_ = nullptr;
  obs::Counter* c_writes_fenced_ = nullptr;
  Histogram* h_hit_age_us_ = nullptr;
  sim::CrashRegistrar crash_registrar_;
};

}  // namespace evc::cache

#endif  // EVC_CACHE_EDGE_CACHE_H_

// Causal+ consistency across datacenters, COPS-style.
//
// Each datacenter holds a full replica served locally (reads never cross the
// WAN). A write commits locally and immediately, then replicates
// asynchronously carrying its *dependencies* — the versions the writing
// client had observed. A remote datacenter applies a replicated write only
// after every dependency is locally visible, so no reader anywhere can see
// an effect before its causes (the "comment appears before the photo"
// anomaly is impossible). Convergent conflict handling: concurrent writes to
// one key resolve by last-writer-wins on (lamport, dc) — causal+.
//
// Client context tracking uses COPS's nearest-dependency optimization: after
// a write, the context collapses to just that write (it transitively
// dominates everything read before).

#ifndef EVC_CAUSAL_CAUSAL_STORE_H_
#define EVC_CAUSAL_CAUSAL_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/rpc.h"
#include "storage/wal.h"

namespace evc::causal {

/// Globally unique, totally ordered write id: (lamport, datacenter).
struct WriteId {
  uint64_t lamport = 0;
  uint32_t dc = 0;

  auto operator<=>(const WriteId&) const = default;
  bool IsNull() const { return lamport == 0; }
  std::string ToString() const {
    return std::to_string(lamport) + "@dc" + std::to_string(dc);
  }
};

/// A dependency: "key must be at least at version id".
struct Dependency {
  std::string key;
  WriteId id;
};

/// Client-visible result of a read.
struct CausalRead {
  bool found = false;
  std::string value;
  WriteId id;
  /// The dependencies the write carried (needed by get-transactions).
  std::vector<Dependency> deps;
};

struct CausalStats {
  uint64_t writes = 0;
  uint64_t remote_applied_immediately = 0;  ///< dep check passed on arrival
  uint64_t remote_deferred = 0;             ///< buffered awaiting deps
  /// Dep-waiting remote writes lost to a crash before they could apply.
  /// The origin DC already applied them, so convergence for those keys
  /// depends on re-replication — a crash-window the checkers must excuse.
  uint64_t pending_dropped = 0;
  OnlineStats dep_wait_us;                  ///< buffering time of deferred writes
};

/// One logical datacenter = one server node holding a full replica.
class CausalCluster : private sim::CrashParticipant {
 public:
  explicit CausalCluster(sim::Rpc* rpc);
  ~CausalCluster();

  /// Adds a datacenter replica; returns its node id.
  sim::NodeId AddDatacenter();
  std::vector<sim::NodeId> AddDatacenters(int count);
  size_t datacenter_count() const { return dcs_.size(); }

  using PutCallback = std::function<void(Result<WriteId>)>;
  using GetCallback = std::function<void(Result<CausalRead>)>;

  /// Client write via its local datacenter `dc`. `deps` is the client's
  /// causal context (see CausalClient). Commits locally, replicates async.
  void Put(sim::NodeId client, sim::NodeId dc, const std::string& key,
           std::string value, std::vector<Dependency> deps, PutCallback done);

  /// Client read from its local datacenter. Never blocks on remote state.
  void Get(sim::NodeId client, sim::NodeId dc, const std::string& key,
           GetCallback done);

  using GetTransactionCallback =
      std::function<void(Result<std::vector<CausalRead>>)>;

  /// COPS-GT style get-transaction: returns one value per requested key
  /// such that the whole set is **causally consistent** — if any returned
  /// value depends on another requested key, the returned version of that
  /// key is at least the depended-on version. Two rounds, both local to
  /// the datacenter: round 1 reads latest; round 2 re-fetches (by minimum
  /// version, served from a bounded per-key version history) exactly the
  /// keys whose round-1 versions are older than some returned dependency.
  /// Plain per-key Gets do NOT have this property: interleaving with
  /// replication can return a comment alongside a pre-update photo.
  void GetTransaction(sim::NodeId client, sim::NodeId dc,
                      std::vector<std::string> keys,
                      GetTransactionCallback done);

  const CausalStats& stats() const { return stats_; }

  /// Test hooks.
  CausalRead LocalRead(sim::NodeId dc, const std::string& key) const;
  size_t PendingAt(sim::NodeId dc) const;
  bool Converged(const std::string& key) const;

 private:
  /// Versions retained per key for get-transaction round-2 fetches.
  static constexpr size_t kHistoryDepth = 32;

  struct Record {
    std::string value;
    WriteId id;
    std::vector<Dependency> deps;
  };
  struct ReplicatedWrite {
    std::string key;
    std::string value;
    WriteId id;
    std::vector<Dependency> deps;
    sim::Time arrived_at = 0;
  };
  struct Datacenter {
    sim::NodeId node = 0;
    uint32_t index = 0;
    uint64_t lamport = 0;
    std::map<std::string, Record> data;
    // Bounded multi-version history, oldest first (GT round-2 fetches).
    std::map<std::string, std::deque<Record>> history;
    std::deque<ReplicatedWrite> pending;  // dep-unsatisfied remote writes
    // Applied-write journal, replayed on restart: a crashed replica recovers
    // its applied prefix (the Lamport clock recovers with it).
    WriteAheadLog wal;
  };
  struct PutReq {
    std::string key;
    std::string value;
    std::vector<Dependency> deps;
  };
  struct GetReq {
    std::string key;
    /// GT round 2: serve the oldest retained version with id >= min_id
    /// (WriteId{} = just the latest).
    WriteId min_id;
  };

  Datacenter* FindDc(sim::NodeId node);
  const Datacenter* FindDc(sim::NodeId node) const;
  void RegisterHandlers(Datacenter* dc);
  /// Global metrics registry of the owning simulator (causal.* instruments).
  obs::MetricsRegistry& Obs();
  bool DepsSatisfied(const Datacenter& dc,
                     const std::vector<Dependency>& deps) const;
  /// Applies a write (LWW by id) and drains any newly-unblocked pending.
  /// Journals applied writes unless `replaying` (WAL replay must not
  /// re-append what it reads).
  void ApplyWrite(Datacenter* dc, const ReplicatedWrite& write,
                  bool replaying = false);
  void DrainPending(Datacenter* dc);

  // CrashParticipant: crash drops data/history/pending (deferred writes are
  // counted in pending_dropped — they were never applied); restart replays
  // the applied-write journal, which also restores the Lamport clock.
  void OnCrash(uint32_t node) override;
  void OnRestart(uint32_t node) override;

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_put_ = 0;
  sim::MethodId m_get_ = 0;
  sim::MsgType t_replicate_ = 0;
  std::vector<std::unique_ptr<Datacenter>> dcs_;
  std::map<sim::NodeId, Datacenter*> by_node_;
  CausalStats stats_;
  sim::CrashRegistrar crash_registrar_;
};

/// Client-side causal context: tracks nearest dependencies.
class CausalClient {
 public:
  CausalClient(CausalCluster* cluster, sim::NodeId client_node,
               sim::NodeId local_dc)
      : cluster_(cluster), client_node_(client_node), local_dc_(local_dc) {}

  void Put(const std::string& key, std::string value,
           CausalCluster::PutCallback done);
  void Get(const std::string& key, CausalCluster::GetCallback done);

  /// Current nearest-dependency set (exposed for tests).
  const std::map<std::string, WriteId>& context() const { return context_; }

 private:
  CausalCluster* cluster_;
  sim::NodeId client_node_;
  sim::NodeId local_dc_;
  std::map<std::string, WriteId> context_;
};

}  // namespace evc::causal

#endif  // EVC_CAUSAL_CAUSAL_STORE_H_

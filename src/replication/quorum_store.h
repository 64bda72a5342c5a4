// Dynamo-style quorum-replicated key-value store on the simulated network.
//
// The mechanism centerpiece of the tutorial's "first generation" systems:
//   * a preference list of N replicas per key (ring walk from the key hash);
//   * writes ship a causally tagged version to all N and ack after W;
//   * reads query all N, return after R, and merge sibling sets;
//   * read repair pushes the merged result back to stale replicas;
//   * optional sloppy quorums divert writes to fallback nodes with a hint
//     (hinted handoff) so writes stay available through failures;
//   * R + W > N gives read-your-latest-write intersection; smaller R/W gives
//     lower latency and higher availability but stale/concurrent reads —
//     exactly the dial Figs. 1/2 and Table 4 sweep.

#ifndef EVC_REPLICATION_QUORUM_STORE_H_
#define EVC_REPLICATION_QUORUM_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clock/lamport.h"
#include "common/interner.h"
#include "membership/config_service.h"
#include "replication/anti_entropy.h"
#include "replication/hash_ring.h"
#include "resilience/admission.h"
#include "resilience/resilient_rpc.h"
#include "sim/rpc.h"
#include "storage/replica_storage.h"

namespace evc::repl {

/// Quorum configuration (Dynamo's N/R/W).
/// Elastic mode (EnableElastic): floor below which RemoveServerLive refuses
/// to shrink the member set.
constexpr int kMinElasticMembers = 3;

struct QuorumConfig {
  int replication_factor = 3;  ///< N: replicas per key
  int read_quorum = 2;         ///< R: replies required for a read
  int write_quorum = 2;        ///< W: acks required for a write
  bool sloppy = true;          ///< divert to fallback nodes with hints
  bool read_repair = true;     ///< push merged versions to stale replicas
  /// Placement: modulo ring walk (false) or consistent hashing with
  /// virtual nodes (true; see HashRing). Ablation 3 compares them.
  bool use_hash_ring = false;
  int ring_vnodes = 64;
  ReplicaStorageOptions storage;
  /// Opt-out: use the simulator's omniscient CanCommunicate oracle for
  /// sloppy-quorum target selection and hint-delivery gating instead of the
  /// default client-side phi-accrual detector. The oracle is blind to gray
  /// failures (slow/flaky links look "reachable"); the detector sees what a
  /// real coordinator sees. Kept for A/B experiments against the seed
  /// behavior.
  bool use_oracle_detector = false;
  /// Hedge client reads: a slow coordinator gets raced against the next
  /// server after a latency-percentile delay (first reply wins).
  bool hedge_reads = false;
  /// Retry/hedge/detector tuning shared by all servers and clients.
  resilience::ResilienceOptions resilience;
  /// Server-side admission control (overload defense, DESIGN.md §4.5):
  /// every server gets a bounded priority queue in front of its RPC
  /// handlers. Client ops and quorum legs are foreground; hint delivery and
  /// migration streaming are background; ping probes bypass the queue.
  bool admission_enabled = false;
  resilience::AdmissionOptions admission;
  /// Client-op attempts for the resilient client call, inside a fixed
  /// overall deadline. The default keeps the historical two-attempts-in-4x-
  /// budget behavior.
  int client_attempts = 2;
};

/// Result of a quorum read.
struct ReadResult {
  std::vector<Version> versions;  ///< live (non-tombstone) merged siblings
  VersionVector context;          ///< pass into the next Put to supersede
  int replies = 0;                ///< replicas that answered within the quorum
  bool repaired = false;          ///< read repair was triggered
};

using PutCallback = std::function<void(Result<Version>)>;
using GetCallback = std::function<void(Result<ReadResult>)>;

/// Operation statistics (monotonic counters for experiments).
struct DynamoStats {
  uint64_t puts_ok = 0;
  uint64_t puts_unavailable = 0;
  uint64_t gets_ok = 0;
  uint64_t gets_unavailable = 0;
  uint64_t read_repairs = 0;
  uint64_t hints_stored = 0;
  uint64_t hints_delivered = 0;
  /// Hints dropped without delivery: handoff RPC failed, or the holder
  /// crashed with hints buffered. Every stored hint is eventually delivered,
  /// lost, or still pending: hints_stored = hints_delivered + hints_lost +
  /// pending_hints() once no handoff RPC is in flight.
  uint64_t hints_lost = 0;
  uint64_t sloppy_diversions = 0;
  // Elastic membership (all zero for static clusters).
  uint64_t epochs_committed = 0;     ///< commits learned past EnableElastic
  uint64_t stale_epoch_rejects = 0;  ///< data-plane RPCs fenced by epoch
  uint64_t view_refreshes = 0;       ///< successful config pulls
  uint64_t hints_redirected = 0;     ///< hints re-aimed off departed nodes
  uint64_t keys_migrated = 0;        ///< keys streamed to new owners
  uint64_t migrations_started = 0;   ///< per-server catch-up tasks begun
  uint64_t migrations_completed = 0; ///< catch-up tasks acked by the config
  // Backpressure (all zero unless a destination reports load).
  uint64_t hints_deferred = 0;       ///< hint batches held: destination busy
  uint64_t migrate_deferred = 0;     ///< migration chunks held: dest busy
};

/// A cluster of Dynamo-style storage servers sharing one Rpc/network.
class DynamoCluster : private sim::CrashParticipant {
 public:
  DynamoCluster(sim::Rpc* rpc, QuorumConfig config);
  ~DynamoCluster();

  /// Adds a storage server to the static membership (epoch 0); returns its
  /// network node id. Placement follows the new member set from the next
  /// operation on. Not allowed once elastic: live topology changes go
  /// through AddServerLive / RemoveServerLive.
  sim::NodeId AddServer();
  /// Convenience: adds `count` servers.
  std::vector<sim::NodeId> AddServers(int count);

  /// Switches the cluster to live membership driven by `config`, which must
  /// already be bootstrapped with exactly the current server set. Requires
  /// use_hash_ring (epoch rings are vnode-based). Every data-plane RPC then
  /// carries the sender's committed epoch and is fenced on mismatch; see
  /// DESIGN.md §4.4.
  void EnableElastic(membership::ConfigService* config);
  bool elastic() const { return config_service_ != nullptr; }

  /// Creates a fresh server and proposes its join as epoch e+1. Returns the
  /// new node id immediately (clients may route to it only once the join
  /// commits); `prepared` fires when the view is prepared or the proposal
  /// fails. Fails fast when a reconfiguration is already in flight.
  [[nodiscard]] Result<sim::NodeId> AddServerLive(
      std::function<void(Status)> prepared);

  /// Proposes removing `node` as epoch e+1. The server object stays alive
  /// (it redirects its hints and streams moved ranges out during catch-up)
  /// but stops serving once the removal commits.
  [[nodiscard]] Status RemoveServerLive(sim::NodeId node,
                                        std::function<void(Status)> prepared);

  /// The committed membership and epoch: the config service's view when
  /// elastic, the AddServer list at epoch 0 when static.
  std::vector<sim::NodeId> CommittedMembers() const;
  uint64_t committed_epoch() const;
  /// True while a reconfiguration (prepare → catch-up → commit) is in
  /// flight.
  bool Migrating() const;

  size_t server_count() const { return servers_.size(); }
  const QuorumConfig& config() const { return config_; }

  /// Issues a put from `client` through coordinator `coordinator` (must be a
  /// server node). `context` is the causal context from a prior read (empty
  /// for blind writes). The callback fires with the stored Version or
  /// Unavailable/TimedOut.
  void Put(sim::NodeId client, sim::NodeId coordinator, const std::string& key,
           std::string value, const VersionVector& context, PutCallback done);

  /// Issues a tombstone write.
  void Delete(sim::NodeId client, sim::NodeId coordinator,
              const std::string& key, const VersionVector& context,
              PutCallback done);

  /// Issues a quorum read through `coordinator`.
  void Get(sim::NodeId client, sim::NodeId coordinator, const std::string& key,
           GetCallback done);

  /// The first N servers on the ring walk for `key` (ignoring liveness), at
  /// the committed epoch (0 for a static cluster).
  std::vector<sim::NodeId> PreferenceList(const std::string& key) const;

  /// Starts periodic hinted-handoff delivery attempts on every server.
  void StartHintDelivery(sim::Time interval);

  /// Starts phi-accrual heartbeat probing between all servers. No-op in
  /// oracle mode (the oracle needs no evidence). Call after AddServers.
  /// Without it a detector hears only fan-out outcomes, so a node never
  /// stops suspecting a peer it has stopped calling.
  void StartFailureDetection();

  /// Starts Merkle anti-entropy over the servers in AddServer order, one
  /// round per node every `interval`. A live-joined server enters the mesh
  /// before any data moves; a server leaves it once a committed view omits
  /// it after an earlier one listed it. Nodes skip peers their detector
  /// suspects while failure detection runs, and yield to loaded peers when
  /// admission is enabled. Call once, before any reconfiguration commits.
  void StartAntiEntropy(sim::Time interval);
  /// True when every server still in the gossip mesh has the same Merkle
  /// root (false before StartAntiEntropy).
  bool AntiEntropyConverged() const {
    return anti_entropy_ != nullptr && anti_entropy_->Converged();
  }

  /// `server`'s client-side liveness verdict on `peer`: detector + breaker
  /// in detector mode, always true in oracle mode (callers that want the
  /// oracle ask the Network directly). Used by anti-entropy peer selection.
  bool PeerUsable(sim::NodeId server, sim::NodeId peer) const;

  /// Resilience layer of a server (for assertions on detector state).
  resilience::ResilientRpc* resilient(sim::NodeId server);

  /// Admission gate of a server (null unless admission_enabled).
  resilience::AdmissionQueue* admission(sim::NodeId server);

  /// Storage engine of a server (for assertions / anti-entropy wiring).
  ReplicaStorage* storage(sim::NodeId server);
  const DynamoStats& stats() const { return stats_; }

  /// True if every server that is in `key`'s preference list stores an
  /// identical sibling set for `key`.
  bool ReplicasConverged(const std::string& key);

  /// Total undelivered hints across all servers.
  size_t pending_hints() const;

 private:
  /// One server's outbound side of a reconfiguration: the key ranges it
  /// owns under the old epoch that gained owners under the prepared one,
  /// streamed chunk-by-chunk, then reported caught-up to the config
  /// service. Volatile: a crash drops it and the restart refresh rebuilds
  /// it from durable storage.
  struct MigrationTask {
    uint64_t epoch = 0;  ///< the prepared epoch being caught up to
    // target -> (key, versions) entries still to stream. Ordered so the
    // stream order is deterministic.
    std::map<sim::NodeId,
             std::vector<std::pair<std::string, std::vector<Version>>>>
        outgoing;
    bool streaming_done = false;
    bool chunk_inflight = false;
    bool reported = false;
    bool report_inflight = false;
  };

  struct Server {
    sim::NodeId node = 0;
    uint32_t replica_id = 0;
    std::unique_ptr<ReplicaStorage> storage;
    LamportClock clock{0};
    uint64_t coord_counter = 0;  // for versions minted as coordinator
    // Hinted handoff buffer: intended server -> key -> versions.
    std::map<sim::NodeId, std::map<std::string, std::vector<Version>>> hints;
    // Client-side resilience: fan-out outcomes feed its detector/breaker in
    // both modes; only detector mode consults the verdicts.
    std::unique_ptr<resilience::ResilientRpc> resilient;
    // Server-side admission gate (null unless admission_enabled).
    std::unique_ptr<resilience::AdmissionQueue> admission;
    // Per-node routing observability (dyn.coordinated_gets/puts in this
    // node's registry): lets tests assert WHERE client traffic landed —
    // e.g. that a sticky session really re-polls one coordinator.
    obs::Counter* c_coordinated_gets = nullptr;
    obs::Counter* c_coordinated_puts = nullptr;
    // Membership state; a static cluster keeps these defaults forever.
    uint64_t epoch = 0;  ///< committed epoch served under
    std::optional<membership::MembershipView> prepared;  ///< successor view
    bool departed = false;       ///< self left the committed view
    bool needs_refresh = false;  ///< restarted: no coordination until synced
    bool refresh_inflight = false;
    std::unique_ptr<MigrationTask> migration;
  };

  // RPC payloads. Every request carries the sender's committed epoch;
  // receivers fence on mismatch (except cross_epoch data merges, which are
  // CRDT-safe and must survive the commit race).
  struct ClientPutReq {
    std::string key;
    std::string value;
    VersionVector context;
    bool is_delete = false;
    uint64_t epoch = 0;  // client's view of the committed epoch
  };
  struct ClientGetReq {
    std::string key;
    uint64_t epoch = 0;
  };
  struct StoreReq {
    std::string key;
    std::vector<Version> versions;
    bool has_hint = false;
    sim::NodeId intended = 0;  // hinted handoff target
    uint64_t epoch = 0;        // coordinator's epoch (fenced on mismatch)
    // Exempt from the epoch fence: hint deliveries, read repair, and the
    // extra write legs to prepared-view owners merge idempotent version
    // sets and are valid at either epoch of the boundary they straddle.
    bool cross_epoch = false;
  };
  struct StoreAck {
    uint64_t digest = 0;
  };
  struct ReadReq {
    std::string key;
    uint64_t epoch = 0;
  };
  struct ReadReply {
    std::vector<Version> versions;  // raw, including tombstones
    uint64_t digest = 0;
  };
  struct MigrateChunk {
    uint64_t epoch = 0;  // prepared epoch the stream belongs to
    std::vector<std::pair<std::string, std::vector<Version>>> entries;
  };

  /// Placement under one epoch, a pure function of its member list (epoch
  /// 0: the static servers in AddServer order). Keys walk the vnode ring
  /// (use_hash_ring; built on first use) or `members` from Fnv1a64(key) %
  /// size; full walks are cached per interned key.
  struct Placement {
    explicit Placement(std::vector<sim::NodeId> m = {})
        : members(std::move(m)) {}
    std::vector<sim::NodeId> members;
    std::optional<HashRing> ring;
    std::vector<std::vector<sim::NodeId>> walks;
  };

  Server* FindServer(sim::NodeId node);
  Server* CreateServer();
  void RegisterHandlers(Server* server);
  /// Epoch fences on a client op (coordinator side) and a quorum leg.
  Status CoordinatorFence(Server* server, uint64_t client_epoch);
  Status ReplicaFence(Server* server, uint64_t leg_epoch);

  // --- Membership internals (never reached by a static cluster) ---
  /// Routes config-service pushes for `server` into ApplyView.
  void SubscribeServer(Server* server);
  /// Applies a learned (committed, prepared) pair: flips the served epoch,
  /// redirects hints off departed nodes, starts/aborts catch-up.
  void ApplyView(Server* server, const membership::MembershipView& committed,
                 const std::optional<membership::MembershipView>& prepared);
  /// Pulls the current views from the config service (single-flight).
  void RefreshView(Server* server);
  void ScheduleRefreshTick(Server* server);
  /// Every member under `epoch`, in `key`'s placement order.
  const std::vector<sim::NodeId>& RingWalkAt(uint64_t epoch,
                                             const std::string& key) const;
  std::vector<sim::NodeId> PreferenceListAt(uint64_t epoch,
                                            const std::string& key) const;
  /// Builds `server`'s outbound migration task for its prepared view and
  /// starts streaming.
  void StartCatchUp(Server* server);
  void StreamNextChunk(Server* server);
  /// Reports catch-up once streaming finished AND no hint addressed to a
  /// prepared-view member is still buffered (commit must not open the new
  /// epoch before its owners hold the data).
  void TryReportCatchUp(Server* server);
  /// Re-aims buffered hints whose intended home left the committed view at
  /// the key's new primary (or merges locally when that is us).
  void RedirectHints(Server* server);
  /// Coordinator's liveness verdict on a fan-out candidate: oracle or
  /// detector per config (see QuorumConfig::use_oracle_detector).
  bool TargetUsable(Server* coordinator, sim::NodeId candidate) const;
  /// Lazily built per-client ResilientRpc (client retries + read hedging).
  /// Reuses the server's instance when `client` is also a server node.
  resilience::ResilientRpc* ClientRpc(sim::NodeId client);
  /// Per-call options for client ops: two attempts inside the same overall
  /// 4*kRpcTimeout budget the seed spent on one long-shot RPC.
  resilience::CallOptions ClientCallOptions() const;
  /// Global metrics registry of the owning simulator (dyn.* instruments).
  obs::MetricsRegistry& Obs();

  /// The one client-write path behind Put and Delete.
  void Write(sim::NodeId client, sim::NodeId coordinator,
             const std::string& key, std::string value, bool is_delete,
             const VersionVector& context, PutCallback done);
  /// Hinted handoff: buffer at `holder` (merging per (intended, key)), and
  /// send one erased hint, booking it delivered or lost.
  void BufferHint(Server* holder, sim::NodeId intended, const std::string& key,
                  const std::vector<Version>& versions);
  void HandOff(Server* holder, sim::NodeId target, sim::MethodId method,
               const std::string& key, const std::vector<Version>& versions);

  /// Write targets for a coordinator: the preference list, with unreachable
  /// entries replaced by ring-walk fallbacks when sloppy quorums are on.
  /// fallback_for[i] holds the intended node when targets[i] is a fallback.
  void WriteTargets(Server* coordinator, const std::string& key,
                    std::vector<sim::NodeId>* targets,
                    std::vector<sim::NodeId>* intended);

  void CoordinatePut(Server* coordinator, ClientPutReq req, PutCallback done);
  void CoordinateGet(Server* coordinator, std::string key, GetCallback done);
  void DeliverHints(Server* server);
  void ScheduleHintTick(Server* server, sim::Time interval);

  // CrashParticipant: crash drops the hint buffer (counted in hints_lost;
  // hints are deliberately not journaled — Dynamo treats them as best-effort,
  // with anti-entropy as the backstop) and, for non-durable storage, the
  // whole store; restart replays the storage WAL and restores the
  // coordinator's version counter so minted versions never reuse a slot.
  void OnCrash(uint32_t node) override;
  void OnRestart(uint32_t node) override;

  sim::Rpc* rpc_;
  // Cached dyn.* instruments, resolved on first use (the registry lives on
  // the simulator; the seed re-looked each one up by string per operation).
  void ResolveInstruments();
  obs::Counter* c_sloppy_diversions_ = nullptr;
  obs::Counter* c_hints_stored_ = nullptr;
  obs::Counter* c_hints_delivered_ = nullptr;
  obs::Counter* c_hints_lost_ = nullptr;
  obs::Counter* c_puts_ok_ = nullptr;
  obs::Counter* c_puts_unavailable_ = nullptr;
  obs::Counter* c_gets_ok_ = nullptr;
  obs::Counter* c_gets_unavailable_ = nullptr;
  obs::Counter* c_read_repairs_ = nullptr;
  obs::Counter* c_stale_epoch_rejects_ = nullptr;
  obs::Counter* c_view_refreshes_ = nullptr;
  obs::Counter* c_hints_redirected_ = nullptr;
  obs::Counter* c_keys_migrated_ = nullptr;
  Histogram* h_put_latency_us_ = nullptr;
  Histogram* h_get_latency_us_ = nullptr;
  // Keys intern to dense ids that index every epoch's walk cache; the ids
  // stay stable for the cluster's lifetime.
  mutable KeyInterner keys_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_client_put_ = 0;
  sim::MethodId m_client_get_ = 0;
  sim::MethodId m_store_ = 0;
  sim::MethodId m_read_ = 0;
  sim::MethodId m_migrate_ = 0;
  /// Same handler as m_store_, but a distinct method id so admission can
  /// classify hint handoffs as background while quorum legs stay foreground.
  sim::MethodId m_hint_ = 0;
  QuorumConfig config_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::map<sim::NodeId, Server*> by_node_;
  std::map<sim::NodeId, std::unique_ptr<resilience::ResilientRpc>>
      client_rpcs_;
  DynamoStats stats_;
  sim::CrashRegistrar crash_registrar_;
  // Elastic membership (null for static clusters).
  membership::ConfigService* config_service_ = nullptr;
  sim::Time hint_interval_ = 0;   // remembered for live-added servers
  uint64_t announced_epoch_ = 0;  // highest committed epoch learned
  bool detecting_ = false;        // StartFailureDetection ran, detector mode
  std::unique_ptr<AntiEntropy> anti_entropy_;  // null until started
  mutable std::map<uint64_t, Placement> placements_;  ///< by epoch
};

}  // namespace evc::repl

#endif  // EVC_REPLICATION_QUORUM_STORE_H_

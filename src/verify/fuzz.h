// Randomized fault-schedule consistency fuzzer.
//
// One seed = one deterministic adversarial run: a seeded Nemesis composes a
// random fault schedule (partitions, crash/restart cycles, loss/duplication
// ramps) while client sessions run a recorded workload against one of the
// repo's stores; after the final heal and a quiescence period, the property
// checkers in verify/ decide whether the store kept exactly the promises its
// consistency level makes:
//
//   store            | must hold under every schedule
//   -----------------+------------------------------------------------------
//   paxos            | linearizability, replica convergence after heal
//   quorum R+W>N     | convergence, no lost acked writes, all four session
//                    | guarantees
//   quorum R=W=1     | convergence + no lost acked writes after anti-entropy
//                    | (session guarantees intentionally NOT claimed: the
//                    | checkers are expected to catch real stale-read
//                    | anomalies on some seeds — that is the negative test)
//   timeline (PNUTS) | no timeline forks, monotonic reads at a pinned
//                    | replica; convergence when no message was dropped
//   causal (COPS)    | causal consistency (deps visible, per-key monotone);
//                    | convergence when no message was dropped (replication
//                    | is fire-and-forget by design)
//   CRDT g-counter   | convergence + counter value == sum of increments
//   CRDT or-set      | convergence of membership
//   edge-cache       | ALL FOUR session guarantees through the cache (a
//                    | served lease implies no newer acked write), timeline
//                    | fork-freedom, convergence when no message was dropped
//   quorum-elastic   | the strict quorum's claims across live membership
//                    | changes (convergence over the final membership)
//
// Every run is a pure function of (store, seed); tools/evc_fuzz prints the
// command that replays a failure bit-identically. One runner drives every
// store through its StoreUnderTest adapter: it records one client history,
// quiesces until the store settles, then checks the claims of the store's
// table row over that history, the adapter's replica snapshots and its
// covered rule. A store is one adapter plus one FuzzStore entry and row.
// tests/golden_digest_test.cc pins the report and the metric/trace exports
// of every CI cell (six profiles x seeds 1..25) byte for byte.

#ifndef EVC_VERIFY_FUZZ_H_
#define EVC_VERIFY_FUZZ_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/nemesis.h"
#include "sim/rpc.h"
#include "sim/simulator.h"
#include "verify/causal_checker.h"
#include "verify/convergence.h"
#include "verify/session_guarantees.h"

namespace evc::verify {

enum class FuzzStore {
  kPaxos,
  kQuorumStrict,  ///< N=3 R=2 W=2, read repair, anti-entropy
  kQuorumWeak,    ///< N=3 R=1 W=1, sloppy quorums + hints, anti-entropy
  kTimeline,      ///< PNUTS-style primary-copy
  kCausal,        ///< COPS-style causal+
  kGCounter,      ///< state-based CRDT counter over gossip
  kOrSet,         ///< observed-remove set over gossip
  kEdgeCache,     ///< lease-based edge cache over the timeline store
  kQuorumElastic, ///< strict quorum + Paxos-backed live membership changes
};

const char* ToString(FuzzStore store);
/// Parses the names printed by ToString (e.g. "quorum-weak"). Returns false
/// on unknown names.
bool ParseFuzzStore(const std::string& name, FuzzStore* store);
std::vector<FuzzStore> AllFuzzStores();

struct FuzzOptions {
  uint64_t seed = 1;
  FuzzStore store = FuzzStore::kQuorumWeak;
  int servers = 5;
  int sessions = 3;
  int ops_per_session = 30;
  int keyspace = 4;
  sim::NemesisScheduleOptions nemesis{};
  /// Virtual time allowed for post-heal repair before the convergence check.
  sim::Time quiescence_timeout = 60 * sim::kSecond;
  /// The run's crash model, handed to its Nemesis: on, a nemesis crash
  /// drops every store's volatile state and a restart replays the store's
  /// journal. Off (the default, matching the pinned seed corpora), a crash
  /// is network silence only and every store keeps its state.
  bool amnesia = false;
  /// Quorum stores only: use the omniscient CanCommunicate oracle for
  /// sloppy-quorum target selection instead of the default phi-accrual
  /// detector (see QuorumConfig::use_oracle_detector). Same-seed A/B runs
  /// of the two modes compare their hinted-handoff behavior.
  bool use_oracle_detector = false;
  /// kQuorumElastic only: run the elastic cluster with sloppy quorums and
  /// hinted handoff instead of the strict R+W>N configuration. The hint-
  /// ledger sweep uses this to drive hint traffic across membership changes
  /// (strict mode stores hints only on rare cross-epoch leg failures);
  /// session guarantees are not asserted in this mode — sloppy quorums
  /// trade RYW for availability by design.
  bool elastic_sloppy = false;
  /// Overload mode (--profile=overload): arms the nemesis load family
  /// (set nemesis.allow_load_spikes too), routes kFlashCrowd / kLoadSpike
  /// through the driver's pacing (offered load multiplies, hot keys
  /// rotate), and turns the overload defenses on for the quorum stores —
  /// server admission control plus client retry budgets and AIMD limits.
  /// The claims checked are unchanged: shedding and failing fast are legal
  /// under overload; corrupting state or failing to converge is not.
  bool overload = false;
  /// When non-null, filled at end-of-run with the deterministic metric /
  /// trace exports (obs/export.h) for byte-for-byte comparison.
  std::string* capture_metrics_json = nullptr;
  std::string* capture_trace_csv = nullptr;
};

/// Per-store defaults (server counts, op counts sized to each checker).
FuzzOptions DefaultFuzzOptions(FuzzStore store, uint64_t seed);

/// Overlays a named fault-schedule profile onto `options` (the values of
/// evc_fuzz --profile; "" leaves the options as they are). Returns false on
/// unknown names.
///   crash-heavy  faster faults, partitions/crashes only (no loss or
///                duplication ramps)
///   gray-heavy   slow links, flaky links and slow nodes mixed with crashes,
///                no clean partitions — what the CanCommunicate oracle
///                cannot see
///   edge-cache   gray-heavy plus amnesia: volatile lease tables and
///                recovery fences, and unreachable lease holders that must
///                be waited out, never served around
///   overload     flash crowds and hot-key shifts with the overload
///                defenses armed, no other faults
///   elastic      live add/remove and rolling restarts over gray links, no
///                partitions or hard crashes (pair with quorum-elastic,
///                whose defaults it equals)
bool ApplyFuzzProfile(const std::string& profile, FuzzOptions* options);

struct FuzzReport {
  FuzzStore store = FuzzStore::kQuorumWeak;
  uint64_t seed = 0;

  // Workload accounting.
  uint64_t writes_acked = 0;
  uint64_t writes_failed = 0;
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;
  uint64_t faults_injected = 0;
  uint64_t messages_dropped = 0;

  // Linearizability (paxos).
  bool lin_checked = false;
  bool linearizable = true;
  bool lin_exhausted = false;
  size_t lin_ops = 0;

  // Convergence after heal + quiescence.
  bool conv_checked = false;
  /// False when the store has no repair path and the schedule dropped
  /// messages (timeline/causal replicate fire-and-forget): divergence is
  /// then expected, not a bug, and convergence is not claimed.
  bool conv_applicable = true;
  ConvergenceResult convergence;

  // Session guarantees.
  bool sess_checked = false;
  SessionCheckResult session;

  // Causal consistency.
  bool causal_checked = false;
  CausalCheckResult causal;

  // Timeline forks: same (key, seqno) observed with two different values.
  bool fork_checked = false;
  size_t fork_violations = 0;

  // CRDT value property (g-counter total == acked increments).
  bool crdt_value_checked = false;
  bool crdt_value_ok = true;

  // Quorum stores: hinted-handoff ledger (every stored hint is eventually
  // delivered, lost to an amnesia crash, or still pending — the
  // fuzz-sweep ledger test asserts stored == delivered + lost + pending)
  // and detector honesty (suspicions raised while the network oracle said
  // the peer was reachable — zero by definition in oracle mode).
  uint64_t hints_stored = 0;
  uint64_t hints_delivered = 0;
  uint64_t hints_lost = 0;
  uint64_t hints_pending = 0;
  uint64_t detector_false_positives = 0;

  // Elastic membership (kQuorumElastic only): reconfigurations that actually
  // committed during the run, plus the data-plane evidence that the epoch
  // fences and migration paths were exercised rather than idle.
  uint64_t epochs_committed = 0;     ///< committed epochs beyond bootstrap
  uint64_t membership_ops = 0;       ///< nemesis add/remove ops that started
  uint64_t keys_migrated = 0;        ///< keys streamed to new owners
  uint64_t stale_epoch_rejects = 0;  ///< data-plane RPCs fenced by epoch
  uint64_t hints_redirected = 0;     ///< hints re-aimed off departed nodes

  // Edge cache: client-tier accounting (kEdgeCache only).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_revokes_sent = 0;
  uint64_t cache_writes_fenced = 0;

  /// Any consistency violation recorded, including ones the store's level
  /// does not forbid (weak-store stale reads). This is how the fuzz tests
  /// prove the checkers detect real anomalies rather than vacuously passing.
  bool AnomalyDetected() const;

  /// True when the store satisfied every property its consistency level
  /// claims under this schedule. On false, `why` (if given) names the
  /// violated claim.
  bool MeetsClaims(std::string* why = nullptr) const;

  /// Deterministic one-line summary (identical across replays of a seed).
  std::string Summary() const;
};

/// What one client op reported when it completed.
struct OpOutcome {
  bool ok = false;
  /// Get: the values returned (sibling sets; empty means not found).
  std::vector<std::string> observed{};
  bool from_cache = false;  ///< Get served by a client-side cache
  uint64_t seqno = 0;  ///< timeline stores: position written, or read
  /// Causal stores: the id and dependencies of the write made, or read.
  causal::WriteId id{};
  std::vector<causal::Dependency> deps{};
};

/// One store as the fuzz runner drives it. The adapter builds its store on
/// the run's RPC layer in its constructor and is destroyed before it.
class StoreUnderTest {
 public:
  /// A session op: a write of `value` to `key`, or a read of `key`.
  struct Op {
    bool write = false;
    std::string key{}, value{};
  };
  using KeyDraw = std::function<std::string()>;  ///< draws a workload key
  using Done = std::function<void(OpOutcome)>;   ///< called once per op

  virtual ~StoreUnderTest() = default;

  /// The nodes every fault family may hit.
  virtual std::vector<sim::NodeId> FaultTargets() const = 0;
  /// Hooks the store's own fault surfaces (gray-only targets, membership
  /// changes) into the run's nemesis.
  virtual void Attach(sim::Nemesis* /*nemesis*/) {}
  /// Draws op `n` of `session` from its stream: by default `key()`, then a
  /// fair write/read coin; a write's value is unique across the run.
  virtual Op Draw(int session, int n, Rng* rng, const KeyDraw& key);
  virtual void Put(int session, const std::string& key,
                   const std::string& value, Done done) = 0;
  virtual void Get(int session, const std::string& key, Done done) = 0;
  /// True once the store has repaired what the faults broke; quiescence
  /// then ends early.
  virtual bool Settled() { return false; }
  /// Each replica's final state, or nullopt when this run voids the
  /// convergence claim (fire-and-forget replication lost a message).
  virtual std::optional<std::vector<ReplicaState>> Snapshot() = 0;
  /// Whether the final values of `write.key` account for an acked write
  /// they do not contain (e.g. a causally newer version superseded it).
  virtual bool Covered(const AckedWrite& /*write*/,
                       const std::vector<std::string>& /*final_values*/) {
    return false;
  }
  /// Fills the report fields only this store has.
  virtual void Report(FuzzReport* /*report*/) {}
};

using StoreFactory =
    std::function<std::unique_ptr<StoreUnderTest>(sim::Rpc* rpc)>;

/// Runs one seed. Deterministic: same options => identical report. `make`
/// builds the store under test on the run's RPC layer; by default it is
/// the adapter of options.store's row, whose claims are checked either way.
FuzzReport RunFuzzSeed(const FuzzOptions& options,
                       const StoreFactory& make = nullptr);

}  // namespace evc::verify

#endif  // EVC_VERIFY_FUZZ_H_

// Nemesis: Jepsen-style adversarial fault scheduling for the simulator.
//
// Benchmarks and tests used to hand-roll fault injection with raw
// Network::Partition / SetNodeUp / ScheduleAt calls; the Nemesis gives them
// one shared, declarative path. A FaultPlan is a time-ordered list of fault
// actions, each naming its target or leaving it drawn; a Nemesis executes a
// plan against a Network, drawing targets from its own seeded Rng when each
// fault fires, so that an entire adversarial schedule is a pure function of
// (seed, options) and any failure replays bit-identically. The Nemesis also
// owns the crash model: whether its crashes drop volatile state is one
// constructor argument, not a per-store option. The fuzz harness
// (verify/fuzz.h, tools/evc_fuzz) drives thousands of these schedules
// against every store.

#ifndef EVC_SIM_NEMESIS_H_
#define EVC_SIM_NEMESIS_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"

namespace evc::sim {

/// Shapes of partitions the Nemesis can draw.
enum class PartitionStyle {
  kMajorityMinority,  ///< cut off a random minority (< half) of the targets
  kRingSplit,         ///< split a contiguous run of the target ring away
  kIsolateOne,        ///< isolate a single random target
  kRandomBisect,      ///< independent fair coin per target
};

const char* ToString(PartitionStyle style);

/// One scheduled fault. Times are relative to the instant the plan is
/// executed (Nemesis::Execute adds Simulator::Now()). A fault either names
/// its target or leaves it drawn: a node or link end of kDrawn, or a
/// partition without groups, is drawn from the Nemesis's targets when the
/// fault fires.
struct FaultAction {
  /// A node or link end the Nemesis draws at fire time.
  static constexpr NodeId kDrawn = std::numeric_limits<NodeId>::max();

  enum class Kind {
    kPartition,        ///< `groups` (Network::Partition semantics); without
                       ///< groups, a cut drawn by `style`
    kHeal,             ///< remove any partition
    kCrash,            ///< take `node` down (drawn: a random up target)
    kRestart,          ///< bring `node` back up (drawn: the longest-crashed
                       ///< target this Nemesis crashed)
    kLossRate,         ///< set the network loss probability
    kDuplicateRate,    ///< set the network duplication probability
    // Gray failures: the link/node keeps "working" as far as the
    // CanCommunicate oracle is concerned, but degrades service. Drawn ends
    // come from the gray pool (Nemesis::SetGrayTargets).
    kSlowLink,         ///< inflate latency on link node<->node_b by `factor`
    kFlakyLink,        ///< drop transmissions on node<->node_b at `rate`
    kSlowNode,         ///< add processing `delay` to `node`
    kGrayRecover,      ///< undo the oldest still-active gray fault
    kHealAll,          ///< heal partition, restart crashed targets, zero
                       ///< rates, clear gray faults
    // Membership faults act through the installed MembershipActuator and
    // are skipped (stats_.skipped) when none is installed.
    kAddNode,          ///< propose joining a brand-new node
    kRemoveNode,       ///< propose removing a random removable member,
                       ///< always drawn into `node`
    kRollingRestart,   ///< crash+restart every up target, staggered
    // Load faults act through the installed LoadActuator and are skipped
    // when none is installed. Unlike network faults these attack the
    // workload itself — the trigger for metastable failures.
    kFlashCrowd,       ///< multiply offered load by `factor` (1.0 recovers)
    kLoadSpike,        ///< kFlashCrowd plus a hot-key shift
  };

  Kind kind = Kind::kHeal;
  Time at = 0;
  std::vector<std::vector<NodeId>> groups;  ///< kPartition only
  NodeId node = 0;     ///< kCrash / kRestart / kSlowNode / kRemoveNode /
                       ///< link endpoint a
  NodeId node_b = 0;   ///< link endpoint b (kSlowLink / kFlakyLink)
  double rate = 0.0;   ///< kLossRate / kDuplicateRate / kFlakyLink
  double factor = 1.0; ///< kSlowLink latency multiplier
  Time delay = 0;      ///< kSlowNode processing delay / kRollingRestart stagger
  Time hold = 0;       ///< kRollingRestart: per-node down time
  PartitionStyle style = PartitionStyle::kMajorityMinority;  ///< drawn cuts

  std::string ToString() const;
};

/// Declarative, time-ordered fault schedule. Build one explicitly with the
/// fluent *At() calls, or let Nemesis::GeneratePlan draw a random one. Pass
/// FaultAction::kDrawn for a node or link end the Nemesis should draw.
class FaultPlan {
 public:
  FaultPlan& PartitionAt(Time at, std::vector<std::vector<NodeId>> groups);
  /// A partition whose cut the Nemesis draws by `style` at fire time.
  FaultPlan& PartitionAt(Time at, PartitionStyle style);
  FaultPlan& HealAt(Time at);
  FaultPlan& CrashAt(Time at, NodeId node);
  FaultPlan& RestartAt(Time at, NodeId node);
  FaultPlan& LossRateAt(Time at, double rate);
  FaultPlan& DuplicateRateAt(Time at, double rate);
  FaultPlan& SlowLinkAt(Time at, NodeId a, NodeId b, double factor);
  FaultPlan& FlakyLinkAt(Time at, NodeId a, NodeId b, double drop_rate);
  FaultPlan& SlowNodeAt(Time at, NodeId node, Time delay);
  FaultPlan& GrayRecoverAt(Time at);
  FaultPlan& HealAllAt(Time at);
  FaultPlan& AddNodeAt(Time at);
  FaultPlan& RemoveNodeAt(Time at);
  /// Sets the offered-load multiplier to `factor` (1.0 = nominal, i.e. the
  /// paired recovery). Applied through the installed LoadActuator.
  FaultPlan& FlashCrowdAt(Time at, double factor);
  /// FlashCrowd plus a hot-key-distribution shift at the same instant.
  FaultPlan& LoadSpikeAt(Time at, double factor);
  /// Crash+restart every up target: target i goes down at `at + i*stagger`
  /// and comes back `hold` later. With hold < stagger at most one target is
  /// down at a time — the classic rolling-deploy shape.
  FaultPlan& RollingRestartAt(Time at, Time stagger, Time hold);

  const std::vector<FaultAction>& actions() const { return actions_; }
  size_t size() const { return actions_.size(); }
  bool empty() const { return actions_.empty(); }

  /// One action per line, time-sorted, for failure reports.
  std::string ToString() const;

 private:
  FaultPlan& Push(FaultAction action);
  std::vector<FaultAction> actions_;
};

/// Knobs for random schedule generation. Defaults produce a schedule that
/// keeps a majority of targets connected most of the time (so
/// majority-quorum stores can make progress between faults).
struct NemesisScheduleOptions {
  /// Faults are drawn over [0, duration) relative to execution time.
  Time duration = 20 * kSecond;
  /// Mean (exponential) gap between consecutive fault onsets.
  Time mean_fault_interval = 1500 * kMillisecond;
  /// Fault families the generator may draw. The gray families default to
  /// off so historical schedules (pinned fuzz corpora) replay bit-identically
  /// — enabling a family appends to the draw table, never reorders it.
  bool allow_partitions = true;
  bool allow_crashes = true;
  bool allow_loss = true;
  bool allow_duplication = true;
  bool allow_slow_links = false;
  bool allow_flaky_links = false;
  bool allow_slow_nodes = false;
  /// Membership families, appended after the gray ones (same historical-
  /// replay discipline: enabling appends to the draw table, never reorders).
  /// Both require a MembershipActuator / cooperating restart handling.
  bool allow_membership = false;       ///< kAddNode / kRemoveNode draws
  bool allow_rolling_restart = false;  ///< kRollingRestart draws
  /// Load family (kFlashCrowd / kLoadSpike draws), appended after the
  /// rolling-restart family. Requires a LoadActuator.
  bool allow_load_spikes = false;
  /// Upper bound for the flaky-link drop-rate draw.
  double max_flaky_drop_rate = 0.6;
  /// Maximum targets crashed at once (1 keeps an n>=3 majority alive).
  /// Rolling restarts account separately: their hold is shorter than their
  /// stagger, so they keep at most one extra target down at a time.
  int max_concurrent_crashes = 1;
  /// Append a HealAll at `duration` so runs end fault-free.
  bool heal_at_end = true;
};

struct NemesisStats {
  uint64_t partitions = 0;
  uint64_t heals = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t rate_changes = 0;
  uint64_t gray_faults = 0;      ///< slow/flaky links + slow nodes applied
  uint64_t gray_recoveries = 0;  ///< gray faults undone
  uint64_t membership_ops = 0;   ///< add/remove proposals actually started
  uint64_t rolling_restarts = 0; ///< rolling-restart waves launched
  uint64_t load_spikes = 0;      ///< flash crowds / load spikes applied
  uint64_t skipped = 0;  ///< actions with no eligible (drawn) target or no
                         ///< actuator
  uint64_t total() const {
    return partitions + heals + crashes + restarts + rate_changes +
           gray_faults + gray_recoveries + membership_ops + rolling_restarts +
           load_spikes;
  }
};

/// How the Nemesis drives live membership changes (kAddNode / kRemoveNode):
/// the harness (e.g. the elastic fuzz runner) implements this against its
/// cluster's AddServerLive / RemoveServerLive. All methods run at fault
/// apply time on the simulator thread.
class MembershipActuator {
 public:
  virtual ~MembershipActuator() = default;
  /// Starts a live join of a brand-new node. Returns false when one cannot
  /// start right now (reconfiguration already in flight, floor/cap rules).
  virtual bool AddNode() = 0;
  /// Members currently eligible for removal, in deterministic order. The
  /// Nemesis picks one at random from this list.
  virtual std::vector<NodeId> RemovableNodes() = 0;
  /// Starts a live removal of `node`. Returns false when it cannot start.
  virtual bool RemoveNode(NodeId node) = 0;
};

/// How the Nemesis drives workload-level faults (kFlashCrowd / kLoadSpike):
/// the harness implements this against whatever generates its offered load
/// (e.g. the fuzz driver's session pacing). Runs at fault apply time.
class LoadActuator {
 public:
  virtual ~LoadActuator() = default;
  /// Multiplies the offered load by `factor` (1.0 restores nominal load).
  virtual void SetLoadFactor(double factor) = 0;
  /// Rotates the hot-key set so the spike also lands on fresh keys.
  virtual void ShiftHotKeys() = 0;
};

/// Executes fault plans against a network. `targets` is the set of nodes
/// drawn faults may touch (typically the servers — leave clients out so a
/// partition never strands them in their own group). All randomness comes
/// from `seed`, so a schedule replays exactly.
///
/// `amnesia` is the crash model. On (the default), a crash is a power loss:
/// the Nemesis notifies the simulator's CrashParticipants on the node's
/// up->down edge, so every stateful component drops its volatile state, and
/// a restart lets them recover from their journals. Off, a crash is network
/// silence only: the node receives nothing, but no participant hears of it
/// and all state survives.
class Nemesis {
 public:
  Nemesis(Network* network, std::vector<NodeId> targets, uint64_t seed,
          bool amnesia = true);

  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  /// Extends the pool that drawn gray targets (a kDrawn node or link end of
  /// kSlowLink / kFlakyLink / kSlowNode) come from to `targets` plus
  /// `gray_targets` — e.g. edge cache clients, which a realistic adversary
  /// can degrade but which must never be partition/crash targets (a crashed
  /// client just stops issuing ops; a gray-degraded one keeps serving its
  /// cache). Partition and crash draws still come from `targets` alone.
  /// With an empty extension the draw stream is bit-identical to a Nemesis
  /// without this call.
  void SetGrayTargets(const std::vector<NodeId>& gray_targets);

  /// Installs the handler for kAddNode / kRemoveNode (not owned; must
  /// outlive the Nemesis). Without one those actions are skipped. Consumes
  /// no randomness, so installing it never perturbs existing schedules.
  void SetMembershipActuator(MembershipActuator* actuator) {
    actuator_ = actuator;
  }

  /// Installs the handler for kFlashCrowd / kLoadSpike (not owned; must
  /// outlive the Nemesis). Without one those actions are skipped. Consumes
  /// no randomness, so installing it never perturbs existing schedules.
  void SetLoadActuator(LoadActuator* actuator) { load_actuator_ = actuator; }

  /// Draws a random plan from the options. Pure function of the Nemesis
  /// seed and the options (does not touch the network).
  FaultPlan GeneratePlan(const NemesisScheduleOptions& options);

  /// Schedules every action in `plan` on the simulator, relative to Now().
  void Execute(const FaultPlan& plan);

  /// GeneratePlan + Execute.
  FaultPlan Unleash(const NemesisScheduleOptions& options) {
    FaultPlan plan = GeneratePlan(options);
    Execute(plan);
    return plan;
  }

  /// Immediately undoes everything this Nemesis did: heals the partition,
  /// restarts every target it crashed, and zeroes loss/duplication rates.
  void HealAll();

  /// True if no target is currently crashed by this Nemesis.
  bool AllTargetsUp() const { return crashed_.empty(); }

  /// Gray faults applied by this Nemesis and not yet recovered.
  size_t active_gray_faults() const { return gray_active_.size(); }

  const NemesisStats& stats() const { return stats_; }

  /// One entry per fault applied or skipped: FaultAction::ToString of the
  /// action as applied, stamped with the simulator time and with drawn
  /// targets resolved. A gray recovery shows its fault set back to the
  /// healthy value (x1.00, drop 0.000, +0.0ms); a skipped action keeps its
  /// drawn targets and ends in " skipped".
  const std::vector<std::string>& log() const { return log_; }

 private:
  void Apply(FaultAction action);
  /// Draws a partition cut by `style` from the targets.
  std::vector<NodeId> DrawCut(PartitionStyle style);
  /// Draws a gray-pool node other than `other`; the pool must hold one.
  NodeId DrawGrayTarget(NodeId other);
  /// Sets the network's gray-failure knob for `fault` (resolved targets).
  void SetGray(const FaultAction& fault);
  /// Resets an active gray fault's knob to its healthy value.
  void RecoverGray(FaultAction fault);
  void Log(const FaultAction& applied);
  void Skip(const FaultAction& action);

  Network* net_;
  const bool amnesia_;
  MembershipActuator* actuator_ = nullptr;
  LoadActuator* load_actuator_ = nullptr;
  std::vector<NodeId> targets_;
  /// Pool for gray draws: targets_ plus SetGrayTargets extras (== targets_
  /// until extended, keeping historical schedules bit-identical).
  std::vector<NodeId> gray_pool_;
  Rng rng_;
  NemesisStats stats_;
  std::deque<NodeId> crashed_;  ///< targets crashed by us, oldest first
  std::deque<FaultAction> gray_active_;  ///< active gray faults, oldest first
  bool load_spike_active_ = false;  ///< a factor > 1 is currently applied
  std::vector<std::string> log_;
};

}  // namespace evc::sim

#endif  // EVC_SIM_NEMESIS_H_

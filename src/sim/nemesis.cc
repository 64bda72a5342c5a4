#include "sim/nemesis.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace evc::sim {

const char* ToString(PartitionStyle style) {
  switch (style) {
    case PartitionStyle::kMajorityMinority: return "majority-minority";
    case PartitionStyle::kRingSplit: return "ring-split";
    case PartitionStyle::kIsolateOne: return "isolate-one";
    case PartitionStyle::kRandomBisect: return "random-bisect";
  }
  return "?";
}

namespace {

/// Mean (exponential) time a fault holds before its paired heal/restart.
constexpr Time kMeanFaultDuration = 2 * kSecond;
/// Upper bounds for the rate ramps.
constexpr double kMaxLossRate = 0.25;
constexpr double kMaxDuplicateRate = 0.25;
/// Upper bounds for the slow-link and slow-node draws.
constexpr double kMaxLatencyFactor = 8.0;
constexpr Time kMaxNodeDelay = 30 * kMillisecond;
/// Cap on kAddNode/kRemoveNode draws per plan: reconfigurations are rare,
/// heavyweight events, and each one runs a full prepare/catch-up/commit.
constexpr int kMaxMembershipOps = 3;
/// Rolling-restart shape (kRollingRestart draws).
constexpr Time kRollingStagger = 2 * kSecond;
constexpr Time kRollingHold = 500 * kMillisecond;
/// Upper bound for the load-spike multiplier draw (draws land in
/// [2, kMaxLoadFactor]; below 2x a spike is routine traffic noise).
constexpr double kMaxLoadFactor = 6.0;

std::string FormatTime(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.3fs", static_cast<double>(t) / kSecond);
  return buf;
}

std::string FormatGroups(const std::vector<std::vector<NodeId>>& groups) {
  std::string out = "[";
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += " | ";
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(groups[g][i]);
    }
  }
  out += "]";
  return out;
}

}  // namespace

std::string FaultAction::ToString() const {
  std::string out = FormatTime(at) + " ";
  switch (kind) {
    case Kind::kPartition:
      out += "partition " + FormatGroups(groups);
      break;
    case Kind::kRandomPartition:
      out += std::string("random-partition(") + sim::ToString(style) + ")";
      break;
    case Kind::kHeal:
      out += "heal";
      break;
    case Kind::kCrash:
      out += "crash node " + std::to_string(node);
      break;
    case Kind::kRestart:
      out += "restart node " + std::to_string(node);
      break;
    case Kind::kRandomCrash:
      out += "random-crash";
      break;
    case Kind::kRandomRestart:
      out += "random-restart";
      break;
    case Kind::kLossRate: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "loss-rate %.3f", rate);
      out += buf;
      break;
    }
    case Kind::kDuplicateRate: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "duplicate-rate %.3f", rate);
      out += buf;
      break;
    }
    case Kind::kSlowLink: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "slow-link %u<->%u x%.2f", node, node_b,
                    factor);
      out += buf;
      break;
    }
    case Kind::kFlakyLink: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "flaky-link %u<->%u drop %.3f", node,
                    node_b, rate);
      out += buf;
      break;
    }
    case Kind::kSlowNode: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "slow-node %u +%.1fms", node,
                    static_cast<double>(delay) / kMillisecond);
      out += buf;
      break;
    }
    case Kind::kRandomSlowLink: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "random-slow-link x%.2f", factor);
      out += buf;
      break;
    }
    case Kind::kRandomFlakyLink: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "random-flaky-link drop %.3f", rate);
      out += buf;
      break;
    }
    case Kind::kRandomSlowNode: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "random-slow-node +%.1fms",
                    static_cast<double>(delay) / kMillisecond);
      out += buf;
      break;
    }
    case Kind::kGrayRecover:
      out += "gray-recover";
      break;
    case Kind::kHealAll:
      out += "heal-all";
      break;
    case Kind::kAddNode:
      out += "add-node";
      break;
    case Kind::kRemoveNode:
      out += "remove-node";
      break;
    case Kind::kRollingRestart: {
      char buf[80];
      std::snprintf(buf, sizeof(buf),
                    "rolling-restart stagger %.1fs hold %.1fs",
                    static_cast<double>(delay) / kSecond,
                    static_cast<double>(hold) / kSecond);
      out += buf;
      break;
    }
    case Kind::kFlashCrowd: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "flash-crowd x%.2f", factor);
      out += buf;
      break;
    }
    case Kind::kLoadSpike: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "load-spike x%.2f + hot-key shift",
                    factor);
      out += buf;
      break;
    }
  }
  return out;
}

FaultPlan& FaultPlan::Push(FaultAction action) {
  actions_.push_back(std::move(action));
  return *this;
}

FaultPlan& FaultPlan::PartitionAt(Time at,
                                  std::vector<std::vector<NodeId>> groups) {
  FaultAction a;
  a.kind = FaultAction::Kind::kPartition;
  a.at = at;
  a.groups = std::move(groups);
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RandomPartitionAt(Time at, PartitionStyle style) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRandomPartition;
  a.at = at;
  a.style = style;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::HealAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kHeal;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::CrashAt(Time at, NodeId node) {
  FaultAction a;
  a.kind = FaultAction::Kind::kCrash;
  a.at = at;
  a.node = node;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RestartAt(Time at, NodeId node) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRestart;
  a.at = at;
  a.node = node;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RandomCrashAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRandomCrash;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RandomRestartAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRandomRestart;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::LossRateAt(Time at, double rate) {
  FaultAction a;
  a.kind = FaultAction::Kind::kLossRate;
  a.at = at;
  a.rate = rate;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::DuplicateRateAt(Time at, double rate) {
  FaultAction a;
  a.kind = FaultAction::Kind::kDuplicateRate;
  a.at = at;
  a.rate = rate;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::SlowLinkAt(Time at, NodeId a, NodeId b, double factor) {
  FaultAction action;
  action.kind = FaultAction::Kind::kSlowLink;
  action.at = at;
  action.node = a;
  action.node_b = b;
  action.factor = factor;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::FlakyLinkAt(Time at, NodeId a, NodeId b,
                                  double drop_rate) {
  FaultAction action;
  action.kind = FaultAction::Kind::kFlakyLink;
  action.at = at;
  action.node = a;
  action.node_b = b;
  action.rate = drop_rate;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::SlowNodeAt(Time at, NodeId node, Time delay) {
  FaultAction action;
  action.kind = FaultAction::Kind::kSlowNode;
  action.at = at;
  action.node = node;
  action.delay = delay;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::RandomSlowLinkAt(Time at, double factor) {
  FaultAction action;
  action.kind = FaultAction::Kind::kRandomSlowLink;
  action.at = at;
  action.factor = factor;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::RandomFlakyLinkAt(Time at, double drop_rate) {
  FaultAction action;
  action.kind = FaultAction::Kind::kRandomFlakyLink;
  action.at = at;
  action.rate = drop_rate;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::RandomSlowNodeAt(Time at, Time delay) {
  FaultAction action;
  action.kind = FaultAction::Kind::kRandomSlowNode;
  action.at = at;
  action.delay = delay;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::GrayRecoverAt(Time at) {
  FaultAction action;
  action.kind = FaultAction::Kind::kGrayRecover;
  action.at = at;
  return Push(std::move(action));
}

FaultPlan& FaultPlan::HealAllAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kHealAll;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::AddNodeAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kAddNode;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RemoveNodeAt(Time at) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRemoveNode;
  a.at = at;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::FlashCrowdAt(Time at, double factor) {
  FaultAction a;
  a.kind = FaultAction::Kind::kFlashCrowd;
  a.at = at;
  a.factor = factor;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::LoadSpikeAt(Time at, double factor) {
  FaultAction a;
  a.kind = FaultAction::Kind::kLoadSpike;
  a.at = at;
  a.factor = factor;
  return Push(std::move(a));
}

FaultPlan& FaultPlan::RollingRestartAt(Time at, Time stagger, Time hold) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRollingRestart;
  a.at = at;
  a.delay = stagger;
  a.hold = hold;
  return Push(std::move(a));
}

std::string FaultPlan::ToString() const {
  std::vector<const FaultAction*> sorted;
  sorted.reserve(actions_.size());
  for (const FaultAction& a : actions_) sorted.push_back(&a);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultAction* a, const FaultAction* b) {
                     return a->at < b->at;
                   });
  std::string out;
  for (const FaultAction* a : sorted) {
    out += a->ToString();
    out += "\n";
  }
  return out;
}

Nemesis::Nemesis(Network* network, std::vector<NodeId> targets, uint64_t seed)
    : net_(network), targets_(std::move(targets)), rng_(seed) {
  EVC_CHECK(net_ != nullptr);
  EVC_CHECK(!targets_.empty());
  gray_pool_ = targets_;
}

void Nemesis::SetGrayTargets(const std::vector<NodeId>& gray_targets) {
  gray_pool_ = targets_;
  for (NodeId node : gray_targets) {
    if (std::find(gray_pool_.begin(), gray_pool_.end(), node) ==
        gray_pool_.end()) {
      gray_pool_.push_back(node);
    }
  }
}

FaultPlan Nemesis::GeneratePlan(const NemesisScheduleOptions& options) {
  FaultPlan plan;
  const Time end = options.duration;

  enum Family {
    kPartitionF, kCrashF, kLossF, kDupF,
    kSlowLinkF, kFlakyLinkF, kSlowNodeF,
    kMembershipF, kRollingF, kLoadF
  };
  // Gray and membership families are appended after the historical ones, so
  // schedules drawn with the default toggles consume the rng stream exactly
  // as before.
  std::vector<Family> families;
  if (options.allow_partitions) families.push_back(kPartitionF);
  if (options.allow_crashes && options.max_concurrent_crashes > 0) {
    families.push_back(kCrashF);
  }
  if (options.allow_loss) families.push_back(kLossF);
  if (options.allow_duplication) families.push_back(kDupF);
  if (options.allow_slow_links && gray_pool_.size() >= 2) {
    families.push_back(kSlowLinkF);
  }
  if (options.allow_flaky_links && gray_pool_.size() >= 2) {
    families.push_back(kFlakyLinkF);
  }
  if (options.allow_slow_nodes) families.push_back(kSlowNodeF);
  if (options.allow_membership) families.push_back(kMembershipF);
  if (options.allow_rolling_restart) families.push_back(kRollingF);
  if (options.allow_load_spikes) families.push_back(kLoadF);
  int membership_ops = 0;
  if (families.empty()) {
    if (options.heal_at_end) plan.HealAllAt(end);
    return plan;
  }

  // Walk time forward, drawing fault onsets from an exponential arrival
  // process and pairing each with its recovery action. `crash_ends` tracks
  // symbolic crash intervals so the plan never exceeds the concurrency cap.
  std::vector<Time> crash_ends;
  Time t = 0;
  for (;;) {
    t += std::max<Time>(
        kMillisecond,
        static_cast<Time>(rng_.NextExponential(
            static_cast<double>(options.mean_fault_interval))));
    if (t >= end) break;
    const Time hold = std::max<Time>(
        50 * kMillisecond,
        static_cast<Time>(rng_.NextExponential(
            static_cast<double>(kMeanFaultDuration))));
    const Time recover_at = std::min(t + hold, end);

    Family family = families[rng_.NextBounded(families.size())];
    if (family == kCrashF) {
      std::erase_if(crash_ends, [t](Time e) { return e <= t; });
      if (static_cast<int>(crash_ends.size()) >=
          options.max_concurrent_crashes) {
        family = families[rng_.NextBounded(families.size())];
        if (family == kCrashF) continue;  // skip this onset entirely
      }
    }

    switch (family) {
      case kPartitionF: {
        constexpr PartitionStyle kStyles[] = {
            PartitionStyle::kMajorityMinority, PartitionStyle::kRingSplit,
            PartitionStyle::kIsolateOne, PartitionStyle::kRandomBisect};
        plan.RandomPartitionAt(t, kStyles[rng_.NextBounded(4)]);
        plan.HealAt(recover_at);
        break;
      }
      case kCrashF:
        plan.RandomCrashAt(t);
        plan.RandomRestartAt(recover_at);
        crash_ends.push_back(recover_at);
        break;
      case kLossF:
        plan.LossRateAt(t, rng_.NextDouble() * kMaxLossRate);
        plan.LossRateAt(recover_at, 0.0);
        break;
      case kDupF:
        plan.DuplicateRateAt(t, rng_.NextDouble() * kMaxDuplicateRate);
        plan.DuplicateRateAt(recover_at, 0.0);
        break;
      case kSlowLinkF:
        // Factor in [2, max]: a x1 slow link would be a no-op draw.
        plan.RandomSlowLinkAt(
            t, 2.0 + rng_.NextDouble() * (kMaxLatencyFactor - 2.0));
        plan.GrayRecoverAt(recover_at);
        break;
      case kFlakyLinkF:
        // Rate in [0.2, max]: low rates are indistinguishable from loss.
        plan.RandomFlakyLinkAt(
            t, 0.2 + rng_.NextDouble() * (options.max_flaky_drop_rate - 0.2));
        plan.GrayRecoverAt(recover_at);
        break;
      case kSlowNodeF:
        plan.RandomSlowNodeAt(
            t, std::max<Time>(kMillisecond,
                              static_cast<Time>(
                                  rng_.NextDouble() *
                                  static_cast<double>(kMaxNodeDelay))));
        plan.GrayRecoverAt(recover_at);
        break;
      case kMembershipF:
        // No paired recovery: a membership change is permanent by nature
        // (the commit IS the recovery). Skip the draw past the cap rather
        // than removing the family, to keep the draw table static.
        if (membership_ops >= kMaxMembershipOps) break;
        ++membership_ops;
        if (rng_.NextBool(0.5)) {
          plan.AddNodeAt(t);
        } else {
          plan.RemoveNodeAt(t);
        }
        break;
      case kRollingF:
        plan.RollingRestartAt(t, kRollingStagger, kRollingHold);
        break;
      case kLoadF: {
        // Factor in [2, max]: spikes below 2x are routine traffic noise.
        const double factor =
            2.0 + rng_.NextDouble() * (kMaxLoadFactor - 2.0);
        if (rng_.NextBool(0.5)) {
          plan.LoadSpikeAt(t, factor);
        } else {
          plan.FlashCrowdAt(t, factor);
        }
        // The paired recovery restores nominal load: the spike ends, and
        // whether the system also recovers is exactly what the metastable-
        // failure checks are probing.
        plan.FlashCrowdAt(recover_at, 1.0);
        break;
      }
    }
  }
  if (options.heal_at_end) plan.HealAllAt(end);
  return plan;
}

void Nemesis::Execute(const FaultPlan& plan) {
  Simulator* sim = net_->simulator();
  const Time base = sim->Now();
  // Stable-sort by fire time so a heal scheduled at the same instant as the
  // next fault applies in plan order.
  std::vector<FaultAction> sorted = plan.actions();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  for (FaultAction& action : sorted) {
    FaultAction scheduled = std::move(action);
    sim->ScheduleAt(base + scheduled.at,
                    [this, a = std::move(scheduled)] { Apply(a); });
  }
}

void Nemesis::Note(const std::string& what) {
  log_.push_back(FormatTime(net_->simulator()->Now()) + " " + what);
}

void Nemesis::ApplyRandomPartition(PartitionStyle style) {
  const size_t n = targets_.size();
  std::vector<NodeId> cut;
  switch (style) {
    case PartitionStyle::kMajorityMinority: {
      // A random minority: 1 .. floor((n-1)/2) targets.
      const size_t max_cut = std::max<size_t>(1, (n - 1) / 2);
      const size_t k = 1 + rng_.NextBounded(max_cut);
      std::vector<NodeId> pool = targets_;
      for (size_t i = 0; i < k; ++i) {
        const size_t j = i + rng_.NextBounded(pool.size() - i);
        std::swap(pool[i], pool[j]);
        cut.push_back(pool[i]);
      }
      break;
    }
    case PartitionStyle::kRingSplit: {
      // A contiguous run of 1..n-1 targets in ring order.
      const size_t k = 1 + rng_.NextBounded(n - 1);
      const size_t start = rng_.NextBounded(n);
      for (size_t i = 0; i < k; ++i) cut.push_back(targets_[(start + i) % n]);
      break;
    }
    case PartitionStyle::kIsolateOne:
      cut.push_back(targets_[rng_.NextBounded(n)]);
      break;
    case PartitionStyle::kRandomBisect:
      for (NodeId node : targets_) {
        if (rng_.NextBool(0.5)) cut.push_back(node);
      }
      break;
  }
  if (cut.empty() || cut.size() == n) {
    // Degenerate draw (everyone or no one on the cut side): treat as heal
    // so the action is still deterministic and visible in the log.
    net_->Heal();
    ++stats_.heals;
    Note("partition degenerated to heal");
    return;
  }
  // Only the cut side is listed: every unlisted node (remaining targets and
  // all client nodes) stays together in group 0.
  net_->Partition({cut});
  ++stats_.partitions;
  Note(std::string("partition(") + sim::ToString(style) + ") cut " +
       FormatGroups({cut}));
}

void Nemesis::Apply(const FaultAction& action) {
  using Kind = FaultAction::Kind;
  switch (action.kind) {
    case Kind::kPartition:
      net_->Partition(action.groups);
      ++stats_.partitions;
      Note("partition " + FormatGroups(action.groups));
      break;
    case Kind::kRandomPartition:
      ApplyRandomPartition(action.style);
      break;
    case Kind::kHeal:
      net_->Heal();
      ++stats_.heals;
      Note("heal");
      break;
    case Kind::kCrash: {
      // A nemesis crash is a power loss: volatile state goes with the node.
      // Notify participants only on the up->down edge so a repeated crash of
      // an already-down node cannot double-drop state.
      const bool was_up = net_->IsNodeUp(action.node);
      net_->SetNodeUp(action.node, false);
      if (was_up) net_->simulator()->NotifyCrash(action.node);
      if (std::find(crashed_.begin(), crashed_.end(), action.node) ==
          crashed_.end()) {
        crashed_.push_back(action.node);
      }
      ++stats_.crashes;
      Note("crash node " + std::to_string(action.node));
      break;
    }
    case Kind::kRestart:
      // Recover from durable state before the network marks the node up, so
      // no message can observe half-recovered state.
      if (!net_->IsNodeUp(action.node)) {
        net_->simulator()->NotifyRestart(action.node);
      }
      net_->SetNodeUp(action.node, true);
      std::erase(crashed_, action.node);
      ++stats_.restarts;
      Note("restart node " + std::to_string(action.node));
      break;
    case Kind::kRandomCrash: {
      std::vector<NodeId> up;
      for (NodeId node : targets_) {
        if (net_->IsNodeUp(node)) up.push_back(node);
      }
      if (up.empty()) {
        ++stats_.skipped;
        Note("random-crash skipped (no target up)");
        break;
      }
      const NodeId victim = up[rng_.NextBounded(up.size())];
      net_->SetNodeUp(victim, false);
      net_->simulator()->NotifyCrash(victim);
      crashed_.push_back(victim);
      ++stats_.crashes;
      Note("crash node " + std::to_string(victim) + " (random)");
      break;
    }
    case Kind::kRandomRestart: {
      if (crashed_.empty()) {
        ++stats_.skipped;
        Note("random-restart skipped (nothing crashed)");
        break;
      }
      const NodeId node = crashed_.front();
      crashed_.pop_front();
      net_->simulator()->NotifyRestart(node);
      net_->SetNodeUp(node, true);
      ++stats_.restarts;
      Note("restart node " + std::to_string(node));
      break;
    }
    case Kind::kLossRate: {
      net_->set_loss_rate(action.rate);
      ++stats_.rate_changes;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "loss-rate %.3f", action.rate);
      Note(buf);
      break;
    }
    case Kind::kDuplicateRate: {
      net_->set_duplicate_rate(action.rate);
      ++stats_.rate_changes;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "duplicate-rate %.3f", action.rate);
      Note(buf);
      break;
    }
    case Kind::kSlowLink:
    case Kind::kFlakyLink:
    case Kind::kSlowNode:
    case Kind::kRandomSlowLink:
    case Kind::kRandomFlakyLink:
    case Kind::kRandomSlowNode:
      ApplyGray(action);
      break;
    case Kind::kGrayRecover: {
      if (gray_active_.empty()) {
        ++stats_.skipped;
        Note("gray-recover skipped (no active gray fault)");
        break;
      }
      const GrayFault fault = gray_active_.front();
      gray_active_.pop_front();
      RecoverGray(fault);
      break;
    }
    case Kind::kHealAll:
      HealAll();
      break;
    case Kind::kAddNode: {
      if (actuator_ == nullptr || !actuator_->AddNode()) {
        ++stats_.skipped;
        Note("add-node skipped (no actuator or reconfig in flight)");
        break;
      }
      ++stats_.membership_ops;
      Note("add-node proposed");
      break;
    }
    case Kind::kRemoveNode: {
      std::vector<NodeId> pool =
          actuator_ == nullptr ? std::vector<NodeId>{}
                               : actuator_->RemovableNodes();
      if (pool.empty()) {
        ++stats_.skipped;
        Note("remove-node skipped (no removable member)");
        break;
      }
      const NodeId victim = pool[rng_.NextBounded(pool.size())];
      if (!actuator_->RemoveNode(victim)) {
        ++stats_.skipped;
        Note("remove-node skipped (proposal refused)");
        break;
      }
      ++stats_.membership_ops;
      Note("remove-node " + std::to_string(victim) + " proposed");
      break;
    }
    case Kind::kRollingRestart: {
      // Crash + restart every currently-up target, staggered: target i goes
      // down at i*stagger and returns `hold` later. Reuses the kCrash /
      // kRestart bookkeeping so crash participants and the crashed_ queue
      // see ordinary crashes.
      Simulator* sim = net_->simulator();
      Time offset = 0;
      int waved = 0;
      for (NodeId node : targets_) {
        if (!net_->IsNodeUp(node)) continue;
        sim->ScheduleAfter(offset, [this, node] {
          FaultAction crash;
          crash.kind = Kind::kCrash;
          crash.node = node;
          Apply(crash);
        });
        sim->ScheduleAfter(offset + action.hold, [this, node] {
          FaultAction restart;
          restart.kind = Kind::kRestart;
          restart.node = node;
          Apply(restart);
        });
        offset += action.delay;
        ++waved;
      }
      if (waved == 0) {
        ++stats_.skipped;
        Note("rolling-restart skipped (no target up)");
        break;
      }
      ++stats_.rolling_restarts;
      Note("rolling-restart of " + std::to_string(waved) + " targets");
      break;
    }
    case Kind::kFlashCrowd:
    case Kind::kLoadSpike: {
      if (load_actuator_ == nullptr) {
        ++stats_.skipped;
        Note("load fault skipped (no load actuator)");
        break;
      }
      load_actuator_->SetLoadFactor(action.factor);
      if (action.kind == Kind::kLoadSpike) load_actuator_->ShiftHotKeys();
      char buf[64];
      if (action.factor > 1.0) {
        load_spike_active_ = true;
        ++stats_.load_spikes;
        std::snprintf(buf, sizeof(buf), "%s x%.2f",
                      action.kind == Kind::kLoadSpike ? "load-spike"
                                                      : "flash-crowd",
                      action.factor);
      } else {
        load_spike_active_ = false;
        std::snprintf(buf, sizeof(buf), "load recovered (x%.2f)",
                      action.factor);
      }
      Note(buf);
      break;
    }
  }
}

bool Nemesis::DrawTargetPair(NodeId* a, NodeId* b) {
  if (gray_pool_.size() < 2) return false;
  const size_t i = rng_.NextBounded(gray_pool_.size());
  const size_t j_raw = rng_.NextBounded(gray_pool_.size() - 1);
  const size_t j = j_raw < i ? j_raw : j_raw + 1;
  *a = gray_pool_[i];
  *b = gray_pool_[j];
  return true;
}

void Nemesis::ApplyGray(const FaultAction& action) {
  using Kind = FaultAction::Kind;
  GrayFault fault;
  fault.node = action.node;
  fault.node_b = action.node_b;
  switch (action.kind) {
    case Kind::kSlowLink:
    case Kind::kRandomSlowLink: {
      fault.kind = Kind::kSlowLink;
      if (action.kind == Kind::kRandomSlowLink &&
          !DrawTargetPair(&fault.node, &fault.node_b)) {
        ++stats_.skipped;
        Note("random-slow-link skipped (fewer than two targets)");
        return;
      }
      net_->SetLinkLatencyFactor(fault.node, fault.node_b, action.factor);
      char buf[80];
      std::snprintf(buf, sizeof(buf), "slow-link %u<->%u x%.2f", fault.node,
                    fault.node_b, action.factor);
      Note(buf);
      break;
    }
    case Kind::kFlakyLink:
    case Kind::kRandomFlakyLink: {
      fault.kind = Kind::kFlakyLink;
      if (action.kind == Kind::kRandomFlakyLink &&
          !DrawTargetPair(&fault.node, &fault.node_b)) {
        ++stats_.skipped;
        Note("random-flaky-link skipped (fewer than two targets)");
        return;
      }
      net_->SetLinkDropRate(fault.node, fault.node_b, action.rate);
      char buf[80];
      std::snprintf(buf, sizeof(buf), "flaky-link %u<->%u drop %.3f",
                    fault.node, fault.node_b, action.rate);
      Note(buf);
      break;
    }
    case Kind::kSlowNode:
    case Kind::kRandomSlowNode: {
      fault.kind = Kind::kSlowNode;
      if (action.kind == Kind::kRandomSlowNode) {
        fault.node = gray_pool_[rng_.NextBounded(gray_pool_.size())];
      }
      net_->SetNodeProcessingDelay(fault.node, action.delay);
      char buf[80];
      std::snprintf(buf, sizeof(buf), "slow-node %u +%.1fms", fault.node,
                    static_cast<double>(action.delay) / kMillisecond);
      Note(buf);
      break;
    }
    default:
      EVC_CHECK(false);
  }
  gray_active_.push_back(fault);
  ++stats_.gray_faults;
}

void Nemesis::RecoverGray(const GrayFault& fault) {
  using Kind = FaultAction::Kind;
  switch (fault.kind) {
    case Kind::kSlowLink:
      net_->SetLinkLatencyFactor(fault.node, fault.node_b, 1.0);
      Note("gray-recover slow-link " + std::to_string(fault.node) + "<->" +
           std::to_string(fault.node_b));
      break;
    case Kind::kFlakyLink:
      net_->SetLinkDropRate(fault.node, fault.node_b, 0.0);
      Note("gray-recover flaky-link " + std::to_string(fault.node) + "<->" +
           std::to_string(fault.node_b));
      break;
    case Kind::kSlowNode:
      net_->SetNodeProcessingDelay(fault.node, 0);
      Note("gray-recover slow-node " + std::to_string(fault.node));
      break;
    default:
      EVC_CHECK(false);
  }
  ++stats_.gray_recoveries;
}

void Nemesis::HealAll() {
  net_->Heal();
  while (!crashed_.empty()) {
    const NodeId node = crashed_.front();
    crashed_.pop_front();
    net_->simulator()->NotifyRestart(node);
    net_->SetNodeUp(node, true);
    ++stats_.restarts;
  }
  net_->set_loss_rate(0.0);
  net_->set_duplicate_rate(0.0);
  while (!gray_active_.empty()) {
    const GrayFault fault = gray_active_.front();
    gray_active_.pop_front();
    RecoverGray(fault);
  }
  if (load_spike_active_ && load_actuator_ != nullptr) {
    load_actuator_->SetLoadFactor(1.0);
    load_spike_active_ = false;
  }
  ++stats_.heals;
  Note("heal-all");
}

}  // namespace evc::sim

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
  // Drawn targets print as "drawn" until the Nemesis resolves them.
  auto name = [](NodeId n) {
    return n == kDrawn ? std::string("drawn") : std::to_string(n);
  };
  char buf[80];
  std::string out = FormatTime(at) + " ";
  switch (kind) {
    case Kind::kPartition:
      out += groups.empty()
                 ? std::string("partition drawn ") + sim::ToString(style)
                 : "partition " + FormatGroups(groups);
      break;
    case Kind::kHeal:
      out += "heal";
      break;
    case Kind::kCrash:
      out += "crash node " + name(node);
      break;
    case Kind::kRestart:
      out += "restart node " + name(node);
      break;
    case Kind::kLossRate:
      std::snprintf(buf, sizeof(buf), "loss-rate %.3f", rate);
      out += buf;
      break;
    case Kind::kDuplicateRate:
      std::snprintf(buf, sizeof(buf), "duplicate-rate %.3f", rate);
      out += buf;
      break;
    case Kind::kSlowLink:
      std::snprintf(buf, sizeof(buf), " x%.2f", factor);
      out += "slow-link " + name(node) + "<->" + name(node_b) + buf;
      break;
    case Kind::kFlakyLink:
      std::snprintf(buf, sizeof(buf), " drop %.3f", rate);
      out += "flaky-link " + name(node) + "<->" + name(node_b) + buf;
      break;
    case Kind::kSlowNode:
      std::snprintf(buf, sizeof(buf), " +%.1fms",
                    static_cast<double>(delay) / kMillisecond);
      out += "slow-node " + name(node) + buf;
      break;
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
      out += "remove-node " + name(node);
      break;
    case Kind::kRollingRestart:
      std::snprintf(buf, sizeof(buf),
                    "rolling-restart stagger %.1fs hold %.1fs",
                    static_cast<double>(delay) / kSecond,
                    static_cast<double>(hold) / kSecond);
      out += buf;
      break;
    case Kind::kFlashCrowd:
      std::snprintf(buf, sizeof(buf), "flash-crowd x%.2f", factor);
      out += buf;
      break;
    case Kind::kLoadSpike:
      std::snprintf(buf, sizeof(buf), "load-spike x%.2f + hot-key shift",
                    factor);
      out += buf;
      break;
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

FaultPlan& FaultPlan::PartitionAt(Time at, PartitionStyle style) {
  FaultAction a;
  a.kind = FaultAction::Kind::kPartition;
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
  a.node = FaultAction::kDrawn;
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

Nemesis::Nemesis(Network* network, std::vector<NodeId> targets, uint64_t seed,
                 bool amnesia)
    : net_(network), amnesia_(amnesia), targets_(std::move(targets)),
      rng_(seed) {
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
        plan.PartitionAt(t, kStyles[rng_.NextBounded(4)]);
        plan.HealAt(recover_at);
        break;
      }
      case kCrashF:
        plan.CrashAt(t, FaultAction::kDrawn);
        plan.RestartAt(recover_at, FaultAction::kDrawn);
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
        plan.SlowLinkAt(t, FaultAction::kDrawn, FaultAction::kDrawn,
                        2.0 + rng_.NextDouble() * (kMaxLatencyFactor - 2.0));
        plan.GrayRecoverAt(recover_at);
        break;
      case kFlakyLinkF:
        // Rate in [0.2, max]: low rates are indistinguishable from loss.
        plan.FlakyLinkAt(
            t, FaultAction::kDrawn, FaultAction::kDrawn,
            0.2 + rng_.NextDouble() * (options.max_flaky_drop_rate - 0.2));
        plan.GrayRecoverAt(recover_at);
        break;
      case kSlowNodeF:
        plan.SlowNodeAt(
            t, FaultAction::kDrawn,
            std::max<Time>(kMillisecond,
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

void Nemesis::Log(const FaultAction& applied) {
  log_.push_back(applied.ToString());
}

void Nemesis::Skip(const FaultAction& action) {
  ++stats_.skipped;
  log_.push_back(action.ToString() + " skipped");
}

std::vector<NodeId> Nemesis::DrawCut(PartitionStyle style) {
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
  return cut;
}

NodeId Nemesis::DrawGrayTarget(NodeId other) {
  const auto skip = std::find(gray_pool_.begin(), gray_pool_.end(), other);
  const bool in_pool = skip != gray_pool_.end();
  size_t i = rng_.NextBounded(gray_pool_.size() - (in_pool ? 1 : 0));
  if (in_pool && i >= static_cast<size_t>(skip - gray_pool_.begin())) ++i;
  return gray_pool_[i];
}

void Nemesis::SetGray(const FaultAction& fault) {
  switch (fault.kind) {
    case FaultAction::Kind::kSlowLink:
      net_->SetLinkLatencyFactor(fault.node, fault.node_b, fault.factor);
      break;
    case FaultAction::Kind::kFlakyLink:
      net_->SetLinkDropRate(fault.node, fault.node_b, fault.rate);
      break;
    case FaultAction::Kind::kSlowNode:
      net_->SetNodeProcessingDelay(fault.node, fault.delay);
      break;
    default:
      EVC_CHECK(false);
  }
}

void Nemesis::RecoverGray(FaultAction fault) {
  fault.at = net_->simulator()->Now();
  fault.factor = 1.0;
  fault.rate = 0.0;
  fault.delay = 0;
  SetGray(fault);
  ++stats_.gray_recoveries;
  Log(fault);
}

void Nemesis::Apply(FaultAction action) {
  using Kind = FaultAction::Kind;
  constexpr NodeId kDrawn = FaultAction::kDrawn;
  Simulator* sim = net_->simulator();
  action.at = sim->Now();
  switch (action.kind) {
    case Kind::kPartition:
      if (action.groups.empty()) {
        std::vector<NodeId> cut = DrawCut(action.style);
        if (cut.empty() || cut.size() == targets_.size()) {
          // Degenerate draw (everyone or no one on the cut side): apply a
          // heal so the action stays deterministic and visible in the log.
          action.kind = Kind::kHeal;
          net_->Heal();
          ++stats_.heals;
          break;
        }
        // Only the cut side is listed: every unlisted node (remaining
        // targets and all client nodes) stays together in group 0.
        action.groups = {std::move(cut)};
      }
      net_->Partition(action.groups);
      ++stats_.partitions;
      break;
    case Kind::kHeal:
      net_->Heal();
      ++stats_.heals;
      break;
    case Kind::kCrash: {
      if (action.node == kDrawn) {
        std::vector<NodeId> up;
        for (NodeId node : targets_) {
          if (net_->IsNodeUp(node)) up.push_back(node);
        }
        if (up.empty()) return Skip(action);
        action.node = up[rng_.NextBounded(up.size())];
      }
      // Under amnesia a crash is a power loss: volatile state goes with the
      // node. Participants hear only the up->down edge, so crashing a node
      // that is already down cannot drop its state twice.
      const bool was_up = net_->IsNodeUp(action.node);
      net_->SetNodeUp(action.node, false);
      if (amnesia_ && was_up) sim->NotifyCrash(action.node);
      if (std::find(crashed_.begin(), crashed_.end(), action.node) ==
          crashed_.end()) {
        crashed_.push_back(action.node);
      }
      ++stats_.crashes;
      break;
    }
    case Kind::kRestart:
      if (action.node == kDrawn) {
        if (crashed_.empty()) return Skip(action);
        action.node = crashed_.front();
      }
      // Recover from durable state before the network marks the node up, so
      // no message can observe half-recovered state. The simulator delivers
      // the restart only if it pairs with a crash it delivered.
      if (amnesia_) sim->NotifyRestart(action.node);
      net_->SetNodeUp(action.node, true);
      std::erase(crashed_, action.node);
      ++stats_.restarts;
      break;
    case Kind::kLossRate:
      net_->set_loss_rate(action.rate);
      ++stats_.rate_changes;
      break;
    case Kind::kDuplicateRate:
      net_->set_duplicate_rate(action.rate);
      ++stats_.rate_changes;
      break;
    case Kind::kSlowLink:
    case Kind::kFlakyLink:
    case Kind::kSlowNode: {
      // A drawn link end never equals the other end, so a link with a
      // drawn end needs two nodes in the pool.
      const bool link = action.kind != Kind::kSlowNode;
      if (link && gray_pool_.size() < 2 &&
          (action.node == kDrawn || action.node_b == kDrawn)) {
        return Skip(action);
      }
      if (action.node == kDrawn) {
        action.node = DrawGrayTarget(link ? action.node_b : kDrawn);
      }
      if (link && action.node_b == kDrawn) {
        action.node_b = DrawGrayTarget(action.node);
      }
      SetGray(action);
      gray_active_.push_back(action);
      ++stats_.gray_faults;
      break;
    }
    case Kind::kGrayRecover: {
      if (gray_active_.empty()) return Skip(action);
      FaultAction fault = std::move(gray_active_.front());
      gray_active_.pop_front();
      return RecoverGray(std::move(fault));
    }
    case Kind::kHealAll:
      return HealAll();
    case Kind::kAddNode:
      if (actuator_ == nullptr || !actuator_->AddNode()) return Skip(action);
      ++stats_.membership_ops;
      break;
    case Kind::kRemoveNode: {
      const std::vector<NodeId> pool =
          actuator_ == nullptr ? std::vector<NodeId>{}
                               : actuator_->RemovableNodes();
      if (pool.empty()) return Skip(action);
      action.node = pool[rng_.NextBounded(pool.size())];
      if (!actuator_->RemoveNode(action.node)) return Skip(action);
      ++stats_.membership_ops;
      break;
    }
    case Kind::kRollingRestart: {
      // Crash + restart every currently-up target, staggered: target i goes
      // down at i*stagger and returns `hold` later. Reuses the kCrash /
      // kRestart bookkeeping so crash participants and the crashed_ queue
      // see ordinary crashes.
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
      if (waved == 0) return Skip(action);
      ++stats_.rolling_restarts;
      break;
    }
    case Kind::kFlashCrowd:
    case Kind::kLoadSpike:
      if (load_actuator_ == nullptr) return Skip(action);
      load_actuator_->SetLoadFactor(action.factor);
      if (action.kind == Kind::kLoadSpike) load_actuator_->ShiftHotKeys();
      load_spike_active_ = action.factor > 1.0;
      if (load_spike_active_) ++stats_.load_spikes;
      break;
  }
  Log(action);
}

void Nemesis::HealAll() {
  Simulator* sim = net_->simulator();
  net_->Heal();
  while (!crashed_.empty()) {
    const NodeId node = crashed_.front();
    crashed_.pop_front();
    if (amnesia_) sim->NotifyRestart(node);
    net_->SetNodeUp(node, true);
    ++stats_.restarts;
  }
  net_->set_loss_rate(0.0);
  net_->set_duplicate_rate(0.0);
  while (!gray_active_.empty()) {
    FaultAction fault = std::move(gray_active_.front());
    gray_active_.pop_front();
    RecoverGray(std::move(fault));
  }
  if (load_spike_active_ && load_actuator_ != nullptr) {
    load_actuator_->SetLoadFactor(1.0);
    load_spike_active_ = false;
  }
  ++stats_.heals;
  FaultAction heal_all;
  heal_all.kind = FaultAction::Kind::kHealAll;
  heal_all.at = sim->Now();
  Log(heal_all);
}

}  // namespace evc::sim

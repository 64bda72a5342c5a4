#include "verify/session_guarantees.h"

#include <array>
#include <deque>
#include <limits>
#include <map>
#include <unordered_map>

namespace evc::verify {

namespace {
constexpr size_t kDetailCap = 32;
}  // namespace

RecordedOp RecWrite(int session, std::string key, std::string value,
                    int64_t invoke, int64_t response, bool acked) {
  RecordedOp op;
  op.kind = RecordedOp::Kind::kWrite;
  op.session = session;
  op.key = std::move(key);
  op.value = std::move(value);
  op.acked = acked;
  op.invoke = invoke;
  op.response = response;
  return op;
}

RecordedOp RecRead(int session, std::string key,
                   std::vector<std::string> observed, int64_t invoke,
                   int64_t response, bool from_cache) {
  RecordedOp op;
  op.kind = RecordedOp::Kind::kRead;
  op.session = session;
  op.key = std::move(key);
  op.observed = std::move(observed);
  op.acked = true;
  op.invoke = invoke;
  op.response = response;
  op.from_cache = from_cache;
  return op;
}

std::string SessionViolation::ToString() const {
  const char* name = "?";
  switch (kind) {
    case Kind::kRyw: name = "RYW"; break;
    case Kind::kMr: name = "MR"; break;
    case Kind::kMw: name = "MW"; break;
    case Kind::kWfr: name = "WFR"; break;
  }
  return std::string(name) + " violation: session " + std::to_string(session) +
         " op#" + std::to_string(op_index) + " read of '" + key +
         "' fails to reflect write '" + expected + "'";
}

std::string SessionCheckResult::ToString() const {
  if (malformed) return "malformed history (duplicate write values)";
  return "ryw=" + std::to_string(ryw_violations) +
         " mr=" + std::to_string(mr_violations) +
         " mw=" + std::to_string(mw_violations) +
         " wfr=" + std::to_string(wfr_violations) +
         " cached_reads=" + std::to_string(cached_reads) +
         " cached_violations=" + std::to_string(cached_read_violations);
}

namespace {

struct WriteInfo {
  size_t op_index = 0;
  int session = 0;
  std::string key;
  std::string value;
  int64_t invoke = 0;
  /// Acked writes keep their real response; unacked writes get an
  /// open-ended interval (they may take effect at any later time, so they
  /// can never prove that a state is old).
  int64_t eff_response = 0;
  bool acked = false;
  /// MW: the writer's latest earlier *acked* write per key at issue time.
  std::map<std::string, const WriteInfo*> mw_deps;
  /// WFR: the latest tracked write the writer had *observed* per key.
  std::map<std::string, const WriteInfo*> wfr_deps;
};

using Kind = SessionViolation::Kind;

class SessionChecker {
 public:
  SessionChecker(const std::vector<RecordedOp>& history,
                 const SessionCheckOptions& options)
      : history_(history), options_(options) {}

  SessionCheckResult Run() {
    if (!BuildRegistry()) {
      result_.malformed = true;
      return result_;
    }
    BuildSnapshots();
    CheckObligations();
    return result_;
  }

 private:
  bool BuildRegistry() {
    for (size_t i = 0; i < history_.size(); ++i) {
      const RecordedOp& op = history_[i];
      if (op.kind != RecordedOp::Kind::kWrite) continue;
      if (registry_.count(op.value)) return false;  // values must be unique
      writes_.push_back(WriteInfo{});
      WriteInfo& info = writes_.back();
      info.op_index = i;
      info.session = op.session;
      info.key = op.key;
      info.value = op.value;
      info.invoke = op.invoke;
      info.acked = op.acked;
      info.eff_response =
          op.acked ? op.response : std::numeric_limits<int64_t>::max();
      registry_[op.value] = &info;
    }
    return true;
  }

  const WriteInfo* Lookup(const std::string& value) const {
    auto it = registry_.find(value);
    return it == registry_.end() ? nullptr : it->second;
  }

  /// Per session, in op order: record each write's dependency snapshots.
  void BuildSnapshots() {
    struct SessionState {
      std::map<std::string, const WriteInfo*> own_acked;  // key -> latest
      std::map<std::string, const WriteInfo*> observed;   // key -> max invoke
    };
    std::map<int, SessionState> sessions;
    for (const RecordedOp& op : history_) {
      SessionState& s = sessions[op.session];
      if (op.kind == RecordedOp::Kind::kWrite) {
        auto it = registry_.find(op.value);
        if (it == registry_.end()) continue;
        WriteInfo* info = it->second;
        info->mw_deps = s.own_acked;
        info->wfr_deps = s.observed;
        if (op.acked) s.own_acked[op.key] = info;
      } else if (op.acked) {
        for (const std::string& v : op.observed) {
          const WriteInfo* w = Lookup(v);
          if (w == nullptr) continue;
          const WriteInfo*& slot = s.observed[op.key];
          if (slot == nullptr || slot->invoke < w->invoke) slot = w;
        }
      }
    }
  }

  /// True when the read's returned state may include dep's effect: some
  /// returned value is unknown, or was produced by a write that did not
  /// wholly precede dep. Empty (not-found) can never include a tracked dep.
  bool Reflects(const RecordedOp& read, const WriteInfo& dep) const {
    if (read.observed.empty()) return false;
    for (const std::string& v : read.observed) {
      const WriteInfo* w = Lookup(v);
      if (w == nullptr) return true;
      if (w->eff_response >= dep.invoke) return true;
    }
    return false;
  }

  void Record(Kind kind, const RecordedOp& read, size_t op_index,
              const WriteInfo& dep) {
    switch (kind) {
      case Kind::kRyw: ++result_.ryw_violations; break;
      case Kind::kMr: ++result_.mr_violations; break;
      case Kind::kMw: ++result_.mw_violations; break;
      case Kind::kWfr: ++result_.wfr_violations; break;
    }
    if (read.from_cache) ++result_.cached_read_violations;
    if (result_.violations.size() < kDetailCap) {
      SessionViolation v;
      v.kind = kind;
      v.session = read.session;
      v.op_index = op_index;
      v.key = read.key;
      v.expected = dep.value;
      result_.violations.push_back(std::move(v));
    }
  }

  void CheckObligations() {
    // obligations[session][key][kind] = the dep with max invoke; a dep with
    // a later invoke subsumes earlier ones (reflecting it implies
    // reflecting them), so one slot per kind suffices.
    using PerKey = std::array<const WriteInfo*, 4>;
    std::map<int, std::map<std::string, PerKey>> obligations;
    auto add = [&](int session, const std::string& key, Kind kind,
                   const WriteInfo* dep) {
      PerKey& slot = obligations[session]
                         .try_emplace(key, PerKey{nullptr, nullptr, nullptr,
                                                  nullptr})
                         .first->second;
      const WriteInfo*& entry = slot[static_cast<size_t>(kind)];
      if (entry == nullptr || entry->invoke < dep->invoke) entry = dep;
    };

    const bool enabled[4] = {options_.check_ryw, true, options_.check_mw,
                             options_.check_wfr};
    for (size_t i = 0; i < history_.size(); ++i) {
      const RecordedOp& op = history_[i];
      if (op.kind == RecordedOp::Kind::kWrite) {
        if (op.acked) {
          const WriteInfo* w = Lookup(op.value);
          if (w != nullptr) add(op.session, op.key, Kind::kRyw, w);
        }
        continue;
      }
      if (!op.acked) continue;
      if (op.from_cache) ++result_.cached_reads;

      // Check what this read owes.
      auto session_it = obligations.find(op.session);
      if (session_it != obligations.end()) {
        auto key_it = session_it->second.find(op.key);
        if (key_it != session_it->second.end()) {
          for (size_t k = 0; k < 4; ++k) {
            const WriteInfo* dep = key_it->second[k];
            if (dep == nullptr || !enabled[k]) continue;
            if (!Reflects(op, *dep)) {
              Record(static_cast<Kind>(k), op, i, *dep);
            }
          }
        }
      }

      // Accrue new obligations from what it observed.
      for (const std::string& v : op.observed) {
        const WriteInfo* w = Lookup(v);
        if (w == nullptr) continue;
        // MR: this session must keep seeing at least w on this key.
        add(op.session, op.key, Kind::kMr, w);
        // MW: w's visibility implies its session's earlier acked writes.
        for (const auto& [dep_key, dep] : w->mw_deps) {
          add(op.session, dep_key, Kind::kMw, dep);
        }
        // WFR: w's visibility implies the writes its session had read.
        for (const auto& [dep_key, dep] : w->wfr_deps) {
          add(op.session, dep_key, Kind::kWfr, dep);
        }
      }
    }
  }

  const std::vector<RecordedOp>& history_;
  const SessionCheckOptions& options_;
  SessionCheckResult result_;
  std::deque<WriteInfo> writes_;
  std::unordered_map<std::string, WriteInfo*> registry_;
};

}  // namespace

SessionCheckResult CheckSessionGuarantees(
    const std::vector<RecordedOp>& history,
    const SessionCheckOptions& options) {
  return SessionChecker(history, options).Run();
}

}  // namespace evc::verify

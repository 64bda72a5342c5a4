// Session-guarantee checker over recorded per-session histories.
//
// Detects violations of the four Bayou session guarantees (Terry et al.,
// PDIS '94) from a black-box client history — no access to server state:
//   * RYW — a session's read must reflect its own earlier acked writes;
//   * MR  — a session's read must reflect every write an earlier read of
//           the session observed (reads never go backwards);
//   * MW  — observing a session's write implies that session's earlier
//           writes (any key) are also visible;
//   * WFR — observing a write implies the writes its session had *read*
//           before issuing it are also visible.
//
// Method: every write carries a value unique across the whole history (the
// recorders enforce this), so an observed value identifies the write that
// produced it. Each guarantee becomes a set of "must reflect w" obligations
// attached to future reads. A read *fails to reflect* w only when the
// verdict is provable from real time: every value it returned was produced
// by a write that wholly precedes w (response < w.invoke), or it returned
// not-found while w is a tracked write (these workloads never delete). Reads
// of unknown/concurrent values are conservatively accepted, and writes that
// were never acknowledged are given an open-ended interval — they may take
// effect any time, so they can never prove a violation. Every reported
// violation is therefore a real anomaly; the checker is sound, not complete.

#ifndef EVC_VERIFY_SESSION_GUARANTEES_H_
#define EVC_VERIFY_SESSION_GUARANTEES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace evc::verify {

/// One recorded client operation. Histories interleave sessions; within a
/// session, ops must appear in completion order (sessions are sequential —
/// they issue the next op only after the previous one returned).
struct RecordedOp {
  enum class Kind { kWrite, kRead };
  Kind kind = Kind::kRead;
  int session = 0;
  std::string key;
  /// kWrite: the (history-unique) value written.
  std::string value;
  /// kRead: every value returned (sibling sets; empty means not-found).
  std::vector<std::string> observed;
  /// kRead: served from a client-side cache (edge-cache tier) rather than a
  /// replica. Checked under exactly the same obligations — the lease
  /// protocol's claim is that cached serves are indistinguishable — and
  /// violations on such reads are additionally tallied per-tier.
  bool from_cache = false;
  /// kWrite: acknowledged. kRead: completed successfully (failed reads are
  /// ignored by the checker).
  bool acked = false;
  /// Real-time interval in any monotonic unit.
  int64_t invoke = 0;
  int64_t response = 0;
};

/// Builders for readable test histories.
RecordedOp RecWrite(int session, std::string key, std::string value,
                    int64_t invoke, int64_t response, bool acked = true);
RecordedOp RecRead(int session, std::string key,
                   std::vector<std::string> observed, int64_t invoke,
                   int64_t response, bool from_cache = false);

/// Which guarantees to check; monotonic reads always are.
struct SessionCheckOptions {
  bool check_ryw = true;
  bool check_mw = true;
  bool check_wfr = true;
};

struct SessionViolation {
  enum class Kind { kRyw, kMr, kMw, kWfr };
  Kind kind;
  int session = 0;        ///< the reading session that saw the anomaly
  size_t op_index = 0;    ///< index of the violating read in the history
  std::string key;
  std::string expected;   ///< the write value the read failed to reflect
  std::string ToString() const;
};

struct SessionCheckResult {
  size_t ryw_violations = 0;
  size_t mr_violations = 0;
  size_t mw_violations = 0;
  size_t wfr_violations = 0;
  std::vector<SessionViolation> violations;  ///< capped at 32
  /// Reads in the history that were served from a cache (from_cache), and
  /// how many of the violations above landed on one. A non-zero
  /// cached_read_violations with zero violations on uncached reads points
  /// the blame squarely at the caching tier's invalidation protocol.
  size_t cached_reads = 0;
  size_t cached_read_violations = 0;
  /// Two writes shared a value: the history breaks the precondition and no
  /// verdict is claimed.
  bool malformed = false;

  size_t total() const {
    return ryw_violations + mr_violations + mw_violations + wfr_violations;
  }
  bool ok() const { return !malformed && total() == 0; }
  std::string ToString() const;
};

[[nodiscard]] SessionCheckResult CheckSessionGuarantees(
    const std::vector<RecordedOp>& history,
    const SessionCheckOptions& options = {});

}  // namespace evc::verify

#endif  // EVC_VERIFY_SESSION_GUARANTEES_H_

// evc_lint — a multi-pass determinism, layering & thread-readiness
// static-analysis suite.
//
// A self-contained token/regex-level scanner (no libclang) that enforces the
// project rules every replay/safety guarantee rests on. Three pass families:
//
// Per-line rules (comment/string-stripped text):
//
//   wall-clock           no wall clocks in sim code (system_clock,
//                        steady_clock, time(), gettimeofday, ...). Simulated
//                        time comes from sim::Simulator; a wall clock breaks
//                        bit-identical same-seed replay. The obs exporter
//                        shim (src/obs/export.*) is exempt by path.
//   raw-random           no std::rand / srand / std::random_device, and no
//                        unseeded std::mt19937. All randomness flows through
//                        common/rng.h so every draw is seed-derived.
//   check-macro          no bare assert(); use EVC_CHECK, which fires in
//                        release builds too (assert vanishes under NDEBUG,
//                        which is exactly when the fuzzer runs).
//
// Cross-file symbol passes (declarations in any file inform every file):
//
//   unordered-iteration  no range-for over std::unordered_map/set (or over
//                        getters/aliases/typedefs naming them). Hash-order
//                        iteration is address/seed dependent and diverges
//                        across runs.
//   unordered-snapshot   contents of an unordered container copied into a
//                        vector (iterator-pair constructor, assign(),
//                        insert()) and never passed through std::sort — the
//                        classic way hash-order nondeterminism is laundered
//                        past the iteration check.
//   discarded-status     no expression-statement calls to functions returning
//                        Status/Result (redundant belt to the [[nodiscard]]
//                        attribute on both types, for builds without -Werror).
//   pointer-taint        pointer values flowing into program state: "%p"
//                        format strings, pointer-to-integer casts
//                        (reinterpret_cast<uintptr_t> and C-style twins),
//                        and std::hash over pointer types. Addresses differ
//                        across runs (ASLR, allocator state); any of these
//                        silently keys exported state off them.
//
// Architecture passes (the include graph of the whole scan set):
//
//   layering             every `#include "..."` edge is checked against the
//                        declared layer DAG (see kLayerRanks in lint.cc):
//                          common
//                            -> clock / obs
//                            -> sim                      (simulator core)
//                            -> net / rpc                (sim/network*, rpc*)
//                            -> storage / crdt
//                            -> stores (replication, consensus, causal,
//                               cache, membership, resilience, session,
//                               txn, sla, stale, core)
//                            -> verify / workload
//                            -> api (src/evc.h)
//                            -> bench / tools / tests / examples
//                        An include that climbs this order (a lower layer
//                        reaching up) or names a directory missing from the
//                        map is a finding. Same-rank edges are legal but
//                        participate in cycle detection.
//   include-cycle        cycles in the file-level include graph, and cycles
//                        between same-rank layers — both are layering bugs
//                        that header guards merely hide.
//   orphan-module        a src/ header whose only includers are the
//                        umbrella src/evc.h, its own .cc and tests/ (evc.h
//                        itself is exempt). No bench, example, tool or other
//                        module reaches it, so it reports no number: give it
//                        a user or delete it. Judged only when the scan
//                        holds src/evc.h, and includers count only if they
//                        are in the scan set: scan every user directory
//                        (bench, tools, examples) with src.
//   thread-hostile       (src/ only) non-const namespace-scope globals,
//                        mutable `static` function-locals, and thread_local:
//                        state the deterministic single-threaded sim tolerates
//                        but that becomes a data race or a divergence source
//                        the day the same store code runs on the real
//                        threads+sockets Runtime (ROADMAP: threads/sockets
//                        runtime backend). Each site needs a refactor into
//                        owned state or a reasoned allow().
//
// Suppression syntax (same line or the line directly above the finding):
//
//   // evc-lint: allow(unordered-iteration) reason=keys sorted before use
//
// A suppression without a `reason=` is itself reported (bad-suppression).
//
// The scanner strips comments, string and character literals before matching,
// so prose that merely mentions a banned symbol is never flagged. (The one
// exception: pointer-taint inspects string literals for "%p", since format
// strings are exactly where that bug lives.)
//
// Beyond findings, the CLI exposes one architecture report:
//
//   --layers=dot         emit the observed layer graph as Graphviz DOT,
//                        ranks grouped, upward edges highlighted.

#ifndef EVC_TOOLS_EVC_LINT_LINT_H_
#define EVC_TOOLS_EVC_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace evc {
namespace lint {

/// One rule violation (or a malformed suppression comment).
struct Finding {
  std::string check;    ///< Rule name, e.g. "wall-clock" or "bad-suppression".
  std::string file;     ///< Path as given to the scanner.
  int line = 0;         ///< 1-based line number.
  std::string message;  ///< Human-readable description.
};

/// Names of all real checks (excludes the synthetic "bad-suppression").
const std::vector<std::string>& AllCheckNames();

struct Options {
  /// If non-empty, only run these checks (bad-suppression always runs).
  std::set<std::string> only_checks;
  /// Paths containing any of these substrings are skipped by ScanPaths
  /// (e.g. "lint_fixtures", whose files are deliberately in violation).
  std::vector<std::string> excludes;
};

/// A source file already loaded into memory (path is used for reporting and
/// for path-based exemptions).
struct SourceFile {
  std::string path;
  std::string content;
};

/// Scans `files` as one unit: declarations collected from any file (e.g. an
/// unordered_map member in a header) inform checks in every other file, and
/// the include graph spans the whole set. Returns findings sorted by (file,
/// line, check). Suppressed findings are omitted; malformed suppressions are
/// reported as check "bad-suppression".
std::vector<Finding> ScanFiles(const std::vector<SourceFile>& files,
                               const Options& options = {});

/// Convenience: loads paths (files, or directories walked recursively for
/// .cc/.cpp/.h files) and scans them. IO errors append to `*errors`.
std::vector<Finding> ScanPaths(const std::vector<std::string>& paths,
                               const Options& options,
                               std::vector<std::string>* errors);

/// Deterministic source-file discovery: each directory's entries are sorted
/// bytewise before recursing, so the returned order is byte-identical across
/// filesystems and platforms (readdir order is arbitrary). Files are
/// filtered to .cc/.cpp/.h. Used by ScanPaths; exposed so the order itself
/// can be pinned by tests.
std::vector<std::string> ListSourceFiles(const std::vector<std::string>& paths,
                                         std::vector<std::string>* errors);

/// Maps a file path to its declared architecture layer ("common", "sim",
/// "net", "rpc", "replication", ..., "tests"), or "" when the path is
/// outside the layer map. See the layering rule table in lint.h's header
/// comment and kLayerRanks in lint.cc.
std::string LayerOfPath(const std::string& path);

/// Renders one finding as "file:line: [check] message".
std::string FormatFinding(const Finding& finding);

/// Renders findings as a machine-readable JSON array; each element is an
/// object {"path": ..., "line": ..., "check": ..., "message": ...}. Emitted
/// by the CLI under --format=json.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// Full CLI entry point (used by main.cc and by the self-test to pin exit
/// codes). Returns 0 on a clean scan, or with findings when --werror is NOT
/// given; 1 when findings exist and --werror IS given; 2 on usage/IO errors.
/// Output lines append to `*out`.
int RunCommandLine(const std::vector<std::string>& args,
                   std::vector<std::string>* out);

}  // namespace lint
}  // namespace evc

#endif  // EVC_TOOLS_EVC_LINT_LINT_H_

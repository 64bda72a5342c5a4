// The stack bench's workloads and metrics: names, units, directions and
// regression bounds. BENCHMARK.json at the repository root lists the same
// store workloads and the same end-to-end and per-layer metrics;
// CheckBenchmarkJson() (compare.h) fails when the two differ, and run.sh
// runs it before every bench run.

#ifndef EVC_BENCH_STACK_CATALOG_H_
#define EVC_BENCH_STACK_CATALOG_H_

#include <string>
#include <vector>

namespace evc::stack {

enum class Workload { kQuorumAe50, kPaxosWan90w, kEdgeCache95r, kFuzzSweep };

const std::vector<Workload>& AllWorkloads();
const char* WorkloadName(Workload w);
/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
/// Why the workload is in the bench (one line).
const char* WorkloadWhy(Workload w);
/// True for the three store workloads (client ops with virtual latency).
bool IsStoreWorkload(Workload w);

enum class MetricKind {
  kHost,     ///< host time or memory: noisy, compared by medians
  kVirtual,  ///< derived from virtual time or counts: exact for given seeds
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool lower_is_better;
  /// Allowed worsening before a change counts as a regression: a share of
  /// the baseline median when `relative`, else an absolute amount. Only the
  /// relative metrics are never zero, so only they are printed in the
  /// one-line result and listed in BENCHMARK.json; the absolute ones
  /// (failed, stale, claim ratios) ride in its `failed` and `correct`
  /// fields.
  double bound;
  bool relative;
  /// The least a relative bound allows, as an absolute amount (0: none).
  double floor;
  MetricKind kind;
};

/// End-to-end metrics reported for workload `w`, in report order.
std::vector<MetricDef> EndToEndMetrics(Workload w);
/// Per-layer metrics reported by a traced run of workload `w`.
std::vector<MetricDef> PerLayerMetrics(Workload w);

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_CATALOG_H_

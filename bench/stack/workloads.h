// One repetition ("rep") of a stack-bench workload: build the topology, run
// the open-loop load in virtual time, and report host cost, virtual latency,
// read freshness and per-layer counts.
//
// A rep is a pure function of (workload, seed, scale) apart from its host
// timings: every count and virtual-time metric repeats exactly, which the
// bench checks across reps.

#ifndef EVC_BENCH_STACK_WORKLOADS_H_
#define EVC_BENCH_STACK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog.h"
#include "host_trace.h"
#include "obs/json.h"

namespace evc::stack {

struct RepOptions {
  /// Seeds the simulator and the workload generator (fuzz-sweep: the first
  /// of its fuzz seeds).
  uint64_t seed = 1;
  /// Multiplies each workload's arrival window (and fuzz seed count);
  /// --smoke runs at 0.1.
  double scale = 1.0;
  /// The simulator's own obs::Tracer (RPC spans). The tracer-off arm of the
  /// traced run clears it to measure the tracer's share of host time.
  bool sim_tracer = true;
  /// Non-null only for the traced in-process rep: bench-side host spans,
  /// plus the end-of-run probes that need the rep's final state.
  HostTrace* trace = nullptr;
};

struct RepResult {
  /// End-to-end values and per-layer counts/timings, by metric name.
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;  ///< client ops (fuzz-sweep: fuzz runs)
  uint64_t failed = 0;     ///< failed or refused ops (fuzz: claim failures)
  uint64_t stale_reads = 0;
  uint64_t issued = 0;     ///< arrivals generated
  uint64_t expected = 0;   ///< rate x duration
  uint64_t seed = 0;       ///< the rep's seed (set by whoever ran it)
  /// Self-check violations found inside the rep.
  std::vector<std::string> problems;

  obs::Json ToJson() const;
  static RepResult FromJson(const obs::Json& json);
};

RepResult RunRep(Workload workload, const RepOptions& options);

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_WORKLOADS_H_

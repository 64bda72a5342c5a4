// Layer probes: host time of one public call of a single layer, measured in
// isolation on a fresh object (no workload around it), median of 7 runs.
// They tell a layer's own cost apart from how often a workload calls it.

#ifndef EVC_BENCH_STACK_PROBES_H_
#define EVC_BENCH_STACK_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "host_clock.h"
#include "host_trace.h"
#include "quantiles.h"
#include "workload/workload.h"

namespace evc::stack {

constexpr int kProbeRuns = 7;

/// Runs `fn` kProbeRuns times, each inside a host span named `span`, and
/// returns the median wall duration in nanoseconds.
template <typename Fn>
double MedianNs(HostTrace* trace, std::string_view span, Fn&& fn) {
  std::vector<double> ns;
  for (int run = 0; run < kProbeRuns; ++run) {
    HostSpan s(trace, span);
    const int64_t start = WallNowNs();
    fn();
    ns.push_back(static_cast<double>(WallNowNs() - start));
  }
  return MedianOf(std::move(ns));
}

/// Runs every standalone probe; keys are per-layer metric names. `config`
/// is the workload's generator config (for workload.ns_per_op).
std::map<std::string, double> RunLayerProbes(
    const workload::WorkloadConfig& config, uint64_t seed, HostTrace* trace);

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_PROBES_H_

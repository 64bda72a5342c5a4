// evc_stack_bench --compare=DIR_A,DIR_B: judges B against baseline A.
//
// For every workload with a BENCH_stack_<workload>.json in both
// directories and every end-to-end metric, prints both medians and
// quartiles, the change, the bound and a verdict:
//   ok         — not worse than A by more than the bound;
//   worse      — worse than A by more than the bound;
//   unresolved — the run-to-run spread (quartile distance over median) of
//                either side exceeds the bound, and not every rep of B
//                beats every rep of A, so the data cannot tell.
// Virtual-time metrics of two runs with the same seed and rep count are
// exact, so they are never unresolved. Bounds and directions come from A's
// end_to_end table.

#ifndef EVC_BENCH_STACK_COMPARE_H_
#define EVC_BENCH_STACK_COMPARE_H_

#include <string>

namespace evc::stack {

/// `dirs` is "DIR_A,DIR_B". Returns the exit status: 0 when nothing is
/// worse, 1 on any `worse`, 2 on unreadable or mismatched input.
int CompareDirs(const std::string& dirs);

/// evc_stack_bench --check-catalog=PATH: compares a BENCHMARK.json with the
/// bench catalog. Its workloads must be the store workloads with the same
/// whys; its end_to_end list the relative end-to-end metrics and its
/// per_layer list the per-layer metrics, in catalog order, with the same
/// units, directions and (end-to-end) bounds. Prints each difference to
/// stderr. Returns 0 when they agree, 1 when they differ, 2 when the file
/// cannot be read.
int CheckBenchmarkJson(const std::string& path);

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_COMPARE_H_

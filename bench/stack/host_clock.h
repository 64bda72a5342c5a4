// Host clocks for the stack bench: process CPU time, monotonic wall time and
// peak resident memory.
//
// These are the only host-clock reads in bench/stack (host_clock.cc carries
// the reasoned evc-lint allow). Everything the simulated protocols see still
// comes from sim::Simulator::Now(); host time only ever reaches the bench's
// own reports, never sim-visible state.

#ifndef EVC_BENCH_STACK_HOST_CLOCK_H_
#define EVC_BENCH_STACK_HOST_CLOCK_H_

#include <cstdint>

namespace evc::stack {

/// CPU time consumed by this process (user + system), in nanoseconds.
int64_t CpuNowNs();

/// Monotonic wall clock, in nanoseconds since an arbitrary origin.
int64_t WallNowNs();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// CPU time of one run of a fixed reference kernel (random updates over a
/// 1 MiB array, then ordered-map churn), in nanoseconds. On a shared host
/// the same work drifts by tens of percent over minutes; the kernel's cost
/// moves with it, so a host time divided by a calibration taken around it
/// keeps mostly the cost of the code under test.
int64_t CalibrationCpuNs();

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_HOST_CLOCK_H_

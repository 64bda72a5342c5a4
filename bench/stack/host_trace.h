// Bench-side host-time spans for the traced run.
//
// The traced run wraps calls into each layer (topology set-up, each 100 ms
// simulator slice, workload generation, store issue and completion, probes,
// metric export) in spans timed on the host's monotonic clock. Spans nest
// strictly — the bench is single-threaded and every span closes before its
// parent — so a span's self time is its duration minus the durations of its
// direct children.
//
// Two outputs:
//   * a per-name self-time table over EVERY span (exact aggregates);
//   * an evc-trace-v1 document (obs::TraceToJson) holding run-level spans
//     plus the spans of a sample of ops, small enough for tools/evc_trace.
//     Times in that document are host nanoseconds since the trace began;
//     an op's spans carry the op's client node in `node` and share an
//     `op<N>` outcome, so `evc_trace --outcome=op<N>` lists one op.

#ifndef EVC_BENCH_STACK_HOST_TRACE_H_
#define EVC_BENCH_STACK_HOST_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace evc::stack {

class HostTrace {
 public:
  /// Emitted (exported) spans are capped; aggregates are not.
  static constexpr size_t kEmitCapacity = 1 << 15;

  HostTrace();
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  /// Opens a span. `emit` decides whether it is exported to the trace file;
  /// `op` >= 0 tags it with an op id (outcome "op<N>"), -1 for run spans.
  void Begin(std::string_view name, bool emit, uint32_t node = 0,
             int64_t op = -1);
  /// Closes the innermost open span.
  void End();

  /// Total host ns spent inside spans named `name` (children included).
  int64_t TotalNs(std::string_view name) const;

  /// evc-trace-v1 document of the emitted spans.
  obs::Json ToTraceJson() const;

  struct SelfTimeRow {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// One row per span name, ordered by self time (largest first).
  std::vector<SelfTimeRow> SelfTime() const;

 private:
  struct Frame {
    KeyId name = kInvalidKeyId;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    uint64_t emitted_id = 0;  ///< 0 = not exported
    KeyId outcome = kInvalidKeyId;
  };
  struct Aggregate {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  int64_t Now() const;
  uint64_t EmittedParent() const;

  int64_t origin_ns_;
  obs::Tracer tracer_{kEmitCapacity};
  KeyId run_outcome_ = kInvalidKeyId;
  std::vector<Frame> stack_;
  std::vector<Aggregate> by_name_;  ///< indexed by tracer name id
};

/// RAII span; a null trace makes it a no-op (the measured, untraced reps).
class HostSpan {
 public:
  HostSpan(HostTrace* trace, std::string_view name, bool emit = true,
           uint32_t node = 0, int64_t op = -1)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(name, emit, node, op);
  }
  ~HostSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  HostTrace* trace_;
};

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_HOST_TRACE_H_

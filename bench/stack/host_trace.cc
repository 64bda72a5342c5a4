#include "host_trace.h"

#include <algorithm>

#include "common/status.h"
#include "host_clock.h"
#include "obs/export.h"

namespace evc::stack {

HostTrace::HostTrace() : origin_ns_(WallNowNs()) {
  run_outcome_ = tracer_.InternName("ok");
}

int64_t HostTrace::Now() const { return WallNowNs() - origin_ns_; }

uint64_t HostTrace::EmittedParent() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->emitted_id != 0) return it->emitted_id;
  }
  return 0;
}

void HostTrace::Begin(std::string_view name, bool emit, uint32_t node,
                      int64_t op) {
  Frame frame;
  frame.name = tracer_.InternName(name);
  if (by_name_.size() <= frame.name) by_name_.resize(frame.name + 1);
  frame.start_ns = Now();
  if (emit) {
    frame.outcome = op < 0 ? run_outcome_
                           : tracer_.InternName("op" + std::to_string(op));
    frame.emitted_id =
        tracer_.BeginChild(EmittedParent(), node, frame.name, frame.start_ns);
  }
  stack_.push_back(frame);
}

void HostTrace::End() {
  EVC_CHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t end_ns = Now();
  const int64_t duration = end_ns - frame.start_ns;
  if (frame.emitted_id != 0) tracer_.End(frame.emitted_id, end_ns, frame.outcome);
  Aggregate& agg = by_name_[frame.name];
  ++agg.count;
  agg.total_ns += duration;
  agg.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

int64_t HostTrace::TotalNs(std::string_view name) const {
  for (KeyId id = 0; id < by_name_.size(); ++id) {
    if (tracer_.NameOf(id) == name) return by_name_[id].total_ns;
  }
  return 0;
}

obs::Json HostTrace::ToTraceJson() const { return obs::TraceToJson(tracer_); }

std::vector<HostTrace::SelfTimeRow> HostTrace::SelfTime() const {
  std::vector<SelfTimeRow> rows;
  for (KeyId id = 0; id < by_name_.size(); ++id) {
    const Aggregate& agg = by_name_[id];
    if (agg.count == 0) continue;
    rows.push_back({std::string(tracer_.NameOf(id)), agg.count,
                    static_cast<double>(agg.total_ns) / 1e6,
                    static_cast<double>(agg.self_ns) / 1e6});
  }
  std::sort(rows.begin(), rows.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;
            });
  return rows;
}

}  // namespace evc::stack

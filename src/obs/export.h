// Deterministic exporters for metrics and trace spans.
//
// JSON schemas (stable; validated by tools/evc_bench_check for bench output
// and consumed by tools/evc_trace for traces):
//
//   metrics ("evc-metrics-v1"):
//     {"schema": "...", "global": <registry>, "merged": <registry>,
//      "nodes": {"<node-id>": <registry>, ...}}   // only non-empty nodes
//     <registry> = {"counters": {name: int}, "gauges": {name: double},
//                   "histograms": {name: {"count": int, "mean": double,
//                   "min": double, "p50": ..., "p90": ..., "p99": ...,
//                   "p999": ..., "max": double}}}
//
//   trace ("evc-trace-v1"):
//     {"schema": "...", "dropped": int, "open": int, "spans": [
//        {"id": int, "parent": int, "node": int, "name": str,
//         "start": int, "end": int, "outcome": str}, ...]}
//
// Everything is derived from virtual time and seeded randomness and objects
// serialize with sorted keys, so same-seed runs export identical bytes.

#ifndef EVC_OBS_EXPORT_H_
#define EVC_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace evc::obs {

/// One registry as a Json object (see schema above).
Json RegistryToJson(const MetricsRegistry& registry);

/// Whole metrics hub: global + per-node + merged view.
Json MetricsToJson(const Metrics& metrics);

/// The tracer's finished spans (oldest first).
Json TraceToJson(const Tracer& tracer);

/// CSV of spans: "id,parent,node,name,start,end,outcome".
std::string TraceToCsv(const Tracer& tracer);

/// Writes `content` to `path` (truncating). Returns IO errors as Status.
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace evc::obs

#endif  // EVC_OBS_EXPORT_H_

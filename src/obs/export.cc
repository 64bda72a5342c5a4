#include "obs/export.h"

#include <cstdio>

namespace evc::obs {

namespace {

Json HistogramToJson(const Histogram& h) {
  Json::Object out;
  out["count"] = Json(h.count());
  out["mean"] = Json(h.mean());
  out["min"] = Json(h.min());
  out["p50"] = Json(h.Percentile(0.50));
  out["p90"] = Json(h.Percentile(0.90));
  out["p99"] = Json(h.Percentile(0.99));
  out["p999"] = Json(h.Percentile(0.999));
  out["max"] = Json(h.max());
  return Json(std::move(out));
}

Json SpanToJson(const Tracer& tracer, const Span& span) {
  Json::Object out;
  out["id"] = Json(span.id);
  out["parent"] = Json(span.parent);
  out["node"] = Json(static_cast<uint64_t>(span.node));
  out["name"] = Json(std::string(tracer.NameOf(span.name)));
  out["start"] = Json(span.start);
  out["end"] = Json(span.end);
  out["outcome"] = Json(std::string(tracer.NameOf(span.outcome)));
  return Json(std::move(out));
}

}  // namespace

Json RegistryToJson(const MetricsRegistry& registry) {
  Json::Object counters;
  for (const auto& [name, c] : registry.counters()) {
    counters[name] = Json(c.value());
  }
  Json::Object gauges;
  for (const auto& [name, g] : registry.gauges()) {
    gauges[name] = Json(g.value());
  }
  Json::Object histograms;
  for (const auto& [name, h] : registry.histograms()) {
    histograms[name] = HistogramToJson(h);
  }
  Json::Object out;
  out["counters"] = Json(std::move(counters));
  out["gauges"] = Json(std::move(gauges));
  out["histograms"] = Json(std::move(histograms));
  return Json(std::move(out));
}

Json MetricsToJson(const Metrics& metrics) {
  Json::Object nodes;
  for (uint32_t n = 0; n < metrics.node_limit(); ++n) {
    const MetricsRegistry* reg = metrics.node_if(n);
    if (reg == nullptr || reg->empty()) continue;
    nodes[std::to_string(n)] = RegistryToJson(*reg);
  }
  Json::Object out;
  out["schema"] = Json("evc-metrics-v1");
  out["global"] = RegistryToJson(metrics.global());
  out["nodes"] = Json(std::move(nodes));
  out["merged"] = RegistryToJson(metrics.Merged());
  return Json(std::move(out));
}

Json TraceToJson(const Tracer& tracer) {
  Json::Array spans;
  spans.reserve(tracer.finished().size());
  for (const Span& span : tracer.finished()) {
    spans.push_back(SpanToJson(tracer, span));
  }
  Json::Object out;
  out["schema"] = Json("evc-trace-v1");
  out["dropped"] = Json(tracer.dropped());
  out["open"] = Json(static_cast<uint64_t>(tracer.open_count()));
  out["spans"] = Json(std::move(spans));
  return Json(std::move(out));
}

std::string TraceToCsv(const Tracer& tracer) {
  std::string out = "id,parent,node,name,start,end,outcome\n";
  char buf[256];
  for (const Span& span : tracer.finished()) {
    const std::string name(tracer.NameOf(span.name));
    const std::string outcome(tracer.NameOf(span.outcome));
    std::snprintf(buf, sizeof(buf), "%llu,%llu,%u,%s,%lld,%lld,%s\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent), span.node,
                  name.c_str(), static_cast<long long>(span.start),
                  static_cast<long long>(span.end), outcome.c_str());
    out += buf;
  }
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::OK();
}

}  // namespace evc::obs

#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "catalog.h"
#include "obs/json.h"

namespace evc::stack {

namespace {

struct Summary {
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;
  bool relative = true;
  double floor = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  int64_t n = 0;
  std::vector<double> reps;
};

struct Report {
  /// The run's seed and rep count (report notes): two reports with equal
  /// values ran the same rep seeds.
  std::string seed;
  std::string reps;
  /// metric -> summary, in the file's end_to_end row order.
  std::vector<std::pair<std::string, Summary>> metrics;
};

/// Reads and parses a JSON file; nullopt (after a message) when it cannot.
std::optional<obs::Json> ReadJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  auto parsed = obs::Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(*parsed);
}

const obs::Json* TableRows(const obs::Json& doc, const std::string& table) {
  const obs::Json* tables = doc.Find("tables");
  const obs::Json* t = tables == nullptr ? nullptr : tables->Find(table);
  const obs::Json* rows = t == nullptr ? nullptr : t->Find("rows");
  return rows != nullptr && rows->is_array() ? rows : nullptr;
}

std::string NoteOf(const obs::Json& doc, const std::string& key) {
  const obs::Json* notes = doc.Find("notes");
  const obs::Json* note = notes == nullptr ? nullptr : notes->Find(key);
  return note == nullptr ? "" : note->AsString();
}

/// Loads one report; nullopt when the file is absent or malformed.
std::optional<Report> LoadReport(const std::string& path) {
  const std::optional<obs::Json> parsed = ReadJsonFile(path);
  if (!parsed.has_value()) return std::nullopt;
  const obs::Json* rows = TableRows(*parsed, "end_to_end");
  if (rows == nullptr) {
    std::fprintf(stderr, "%s: no end_to_end table\n", path.c_str());
    return std::nullopt;
  }
  Report report{NoteOf(*parsed, "seed"), NoteOf(*parsed, "reps"), {}};
  for (const obs::Json& row : rows->AsArray()) {
    const obs::Json::Array& c = row.AsArray();
    if (c.size() != 10) return std::nullopt;
    Summary s;
    s.unit = c[1].AsString();
    s.lower_is_better = c[2].AsBool();
    s.bound = c[3].AsDouble();
    s.relative = c[4].AsBool();
    s.floor = c[5].AsDouble();
    s.median = c[6].AsDouble();
    s.q1 = c[7].AsDouble();
    s.q3 = c[8].AsDouble();
    s.n = c[9].AsInt();
    report.metrics.emplace_back(c[0].AsString(), std::move(s));
  }
  if (const obs::Json* reps = TableRows(*parsed, "reps")) {
    for (const obs::Json& row : reps->AsArray()) {
      const obs::Json::Array& c = row.AsArray();
      if (c.size() != 3) return std::nullopt;
      for (auto& [name, s] : report.metrics) {
        if (name == c[0].AsString()) s.reps.push_back(c[2].AsDouble());
      }
    }
  }
  return report;
}

/// How much worse `b` is than `a`, in the metric's bound units (positive =
/// worse).
double Worsening(const Summary& a, const Summary& b) {
  const double diff = a.lower_is_better ? b.median - a.median
                                        : a.median - b.median;
  if (!a.relative) return diff;
  if (a.median == 0) {
    return diff > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return diff / std::fabs(a.median);
}

double Spread(const Summary& s, bool relative) {
  const double iqr = s.q3 - s.q1;
  if (!relative) return iqr;
  return s.median == 0 ? 0.0 : iqr / std::fabs(s.median);
}

/// True when every rep of `b` beats every rep of `a`.
bool EveryRepBetter(const Summary& a, const Summary& b) {
  if (a.reps.empty() || b.reps.empty()) return false;
  const auto [a_min, a_max] = std::minmax_element(a.reps.begin(), a.reps.end());
  const auto [b_min, b_max] = std::minmax_element(b.reps.begin(), b.reps.end());
  return a.lower_is_better ? *b_max < *a_min : *b_min > *a_max;
}

bool IsVirtual(Workload w, const std::string& metric) {
  for (const MetricDef& d : EndToEndMetrics(w)) {
    if (metric == d.name) return d.kind == MetricKind::kVirtual;
  }
  return false;
}

}  // namespace

int CompareDirs(const std::string& dirs) {
  const size_t comma = dirs.find(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 >= dirs.size()) {
    std::fprintf(stderr, "--compare wants DIR_A,DIR_B\n");
    return 2;
  }
  const std::string dir_a = dirs.substr(0, comma);
  const std::string dir_b = dirs.substr(comma + 1);
  int compared = 0;
  int worse = 0;
  int unresolved = 0;
  for (Workload w : AllWorkloads()) {
    const std::string file =
        std::string("/BENCH_stack_") + WorkloadName(w) + ".json";
    const std::optional<Report> a = LoadReport(dir_a + file);
    const std::optional<Report> b = LoadReport(dir_b + file);
    if (!a.has_value() || !b.has_value()) continue;
    if (compared++ == 0) {
      std::printf("%-15s %-17s %-6s %-30s %-30s %-9s %-7s %s\n", "workload",
                  "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
                  "change", "bound", "verdict");
    }
    // Virtual metrics are exact functions of the rep seeds: when both runs
    // used the same ones, the medians differ only if the code did.
    const bool same_seeds = a->seed == b->seed && a->reps == b->reps;
    for (const auto& [metric, sa] : a->metrics) {
      const auto it =
          std::find_if(b->metrics.begin(), b->metrics.end(),
                       [&](const auto& e) { return e.first == metric; });
      if (it == b->metrics.end()) {
        std::printf("%-15s %-17s missing from B\n", WorkloadName(w),
                    metric.c_str());
        ++unresolved;
        continue;
      }
      const Summary& sb = it->second;
      const double change = Worsening(sa, sb);
      const double spread =
          same_seeds && IsVirtual(w, metric)
              ? 0.0
              : std::max(Spread(sa, sa.relative), Spread(sb, sa.relative));
      // A relative bound never allows less than the metric's absolute floor.
      const double bound =
          sa.relative && sa.median != 0
              ? std::max(sa.bound, sa.floor / std::fabs(sa.median))
              : sa.bound;
      const char* verdict = "ok";
      if (spread > bound && !EveryRepBetter(sa, sb)) {
        verdict = "unresolved";
        ++unresolved;
      } else if (change > bound) {
        verdict = "worse";
        ++worse;
      }
      char a_text[64];
      char b_text[64];
      std::snprintf(a_text, sizeof(a_text), "%.6g [%.6g, %.6g]", sa.median,
                    sa.q1, sa.q3);
      std::snprintf(b_text, sizeof(b_text), "%.6g [%.6g, %.6g]", sb.median,
                    sb.q1, sb.q3);
      std::printf("%-15s %-17s %-6s %-30s %-30s %+-9.4g %-7.4g %s\n",
                  WorkloadName(w), metric.c_str(), sa.unit.c_str(), a_text,
                  b_text, change, bound, verdict);
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "no workload has a report in both %s and %s\n",
                 dir_a.c_str(), dir_b.c_str());
    return 2;
  }
  std::printf("%d workload(s): %d worse, %d unresolved\n", compared, worse,
              unresolved);
  return worse > 0 ? 1 : 0;
}

int CheckBenchmarkJson(const std::string& path) {
  const std::optional<obs::Json> doc = ReadJsonFile(path);
  if (!doc.has_value() || !doc->is_object()) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return 2;
  }
  int differences = 0;
  auto differ = [&](const std::string& what) {
    std::fprintf(stderr, "%s differs from the bench catalog: %s\n",
                 path.c_str(), what.c_str());
    ++differences;
  };
  auto list = [&](const char* key) -> const obs::Json::Array& {
    static const obs::Json::Array kEmpty;
    const obs::Json* v = doc->Find(key);
    return v != nullptr && v->is_array() ? v->AsArray() : kEmpty;
  };
  auto field = [](const obs::Json& entry, const char* key) -> std::string {
    const obs::Json* v = entry.Find(key);
    return v == nullptr ? "" : v->AsString();
  };

  std::vector<Workload> listed;
  for (Workload w : AllWorkloads()) {
    if (IsStoreWorkload(w)) listed.push_back(w);
  }
  const obs::Json::Array& workloads = list("workloads");
  if (workloads.size() != listed.size()) differ("number of workloads");
  for (size_t i = 0; i < std::min(workloads.size(), listed.size()); ++i) {
    const Workload w = listed[i];
    if (field(workloads[i], "name") != WorkloadName(w) ||
        field(workloads[i], "why") != WorkloadWhy(w)) {
      differ(std::string("workload ") + WorkloadName(w));
    }
  }

  // Every store workload reports the same metrics; the first stands for all.
  auto check_metrics = [&](const char* key, std::vector<MetricDef> defs,
                           bool with_bound) {
    std::erase_if(defs, [](const MetricDef& d) { return !d.relative; });
    const obs::Json::Array& entries = list(key);
    if (entries.size() != defs.size()) differ(std::string("number of ") + key);
    for (size_t i = 0; i < std::min(entries.size(), defs.size()); ++i) {
      const MetricDef& d = defs[i];
      const obs::Json* bound = entries[i].Find("bound");
      if (field(entries[i], "name") != d.name ||
          field(entries[i], "unit") != d.unit ||
          field(entries[i], "better") !=
              (d.lower_is_better ? "lower" : "higher") ||
          (with_bound &&
           (bound == nullptr || !bound->is_number() ||
            bound->AsDouble() != d.bound))) {
        differ(std::string(key) + " " + d.name);
      }
    }
  };
  check_metrics("end_to_end", EndToEndMetrics(listed.front()), true);
  check_metrics("per_layer", PerLayerMetrics(listed.front()), false);
  return differences == 0 ? 0 : 1;
}

}  // namespace evc::stack

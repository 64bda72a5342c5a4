// evc_bench_check — schema validator for evc-bench-v1 documents.
//
// Usage: evc_bench_check [--floor=<metric>=<min>]... BENCH_a.json [...]
//
// Validates every file and exits nonzero if any violates the schema, so CI
// can gate on bench output staying machine-readable. Each --floor names a
// metric that must be present (in at least one file) and >= <min> in every
// file that reports it — the throughput-regression gate for perf benches
// (e.g. --floor=calendar_scaling_n1000=0.40 fails the simcore bench when
// events/sec at N=1000 falls under 40% of its N=10 rate):
//   * top level is an object with schema == "evc-bench-v1" and a nonempty
//     string name;
//   * metrics is an object of numbers;
//   * notes (optional) is an object of strings;
//   * tables is an object; each table has a nonempty columns array of
//     strings and a rows array where every row is an array of exactly
//     columns.size() scalar cells (bool / number / string);
//   * sim (optional) is an object.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using evc::obs::Json;

struct Floor {
  std::string metric;
  double min = 0;
  bool seen = false;  ///< found in at least one validated file
};

/// Parses "--floor=<metric>=<min>". Returns false on malformed input.
bool ParseFloor(const std::string& arg, Floor* out) {
  const std::string body = arg.substr(8);  // past "--floor="
  const size_t eq = body.rfind('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= body.size()) {
    return false;
  }
  out->metric = body.substr(0, eq);
  char* end = nullptr;
  out->min = std::strtod(body.c_str() + eq + 1, &end);
  return end != nullptr && *end == '\0';
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool Fail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), what.c_str());
  return false;
}

bool IsScalar(const Json& v) {
  return v.is_bool() || v.is_number() || v.is_string();
}

/// Applies every floor that names a metric in `doc` (already validated).
bool CheckFloors(const std::string& path, const Json& doc,
                 std::vector<Floor>* floors) {
  bool ok = true;
  const Json& metrics = *doc.Find("metrics");
  for (Floor& floor : *floors) {
    const Json* value = metrics.Find(floor.metric);
    if (value == nullptr) continue;
    floor.seen = true;
    if (value->AsDouble() < floor.min) {
      ok = Fail(path, "metric " + floor.metric + " = " +
                          std::to_string(value->AsDouble()) +
                          " is below the floor " + std::to_string(floor.min));
    }
  }
  return ok;
}


bool CheckTables(const std::string& path, const Json& tables) {
  if (!tables.is_object()) return Fail(path, "tables is not an object");
  for (const auto& [tname, table] : tables.AsObject()) {
    if (!table.is_object()) {
      return Fail(path, "table " + tname + " is not an object");
    }
    const Json* columns = table.Find("columns");
    if (columns == nullptr || !columns->is_array() ||
        columns->AsArray().empty()) {
      return Fail(path, "table " + tname + " has no nonempty columns array");
    }
    for (const Json& c : columns->AsArray()) {
      if (!c.is_string()) {
        return Fail(path, "table " + tname + " has a non-string column name");
      }
    }
    const Json* rows = table.Find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return Fail(path, "table " + tname + " has no rows array");
    }
    const size_t width = columns->AsArray().size();
    size_t r = 0;
    for (const Json& row : rows->AsArray()) {
      if (!row.is_array() || row.AsArray().size() != width) {
        return Fail(path, "table " + tname + " row " + std::to_string(r) +
                              " does not have " + std::to_string(width) +
                              " cells");
      }
      for (const Json& cell : row.AsArray()) {
        if (!IsScalar(cell)) {
          return Fail(path, "table " + tname + " row " + std::to_string(r) +
                                " has a non-scalar cell");
        }
      }
      ++r;
    }
  }
  return true;
}

bool CheckFile(const std::string& path, std::vector<Floor>* floors) {
  std::string text;
  if (!ReadWholeFile(path, &text)) return Fail(path, "cannot read file");
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return Fail(path, parsed.status().ToString());
  const Json& doc = *parsed;
  if (!doc.is_object()) return Fail(path, "top level is not an object");

  const Json* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "evc-bench-v1") {
    return Fail(path, "schema field is not \"evc-bench-v1\"");
  }
  const Json* name = doc.Find("name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return Fail(path, "name is not a nonempty string");
  }

  const Json* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Fail(path, "metrics is not an object");
  }
  for (const auto& [key, value] : metrics->AsObject()) {
    if (!value.is_number()) {
      return Fail(path, "metric " + key + " is not a number");
    }
  }

  if (const Json* notes = doc.Find("notes")) {
    if (!notes->is_object()) return Fail(path, "notes is not an object");
    for (const auto& [key, value] : notes->AsObject()) {
      if (!value.is_string()) {
        return Fail(path, "note " + key + " is not a string");
      }
    }
  }

  const Json* tables = doc.Find("tables");
  if (tables == nullptr) return Fail(path, "tables is missing");
  if (!CheckTables(path, *tables)) return false;

  if (const Json* sim = doc.Find("sim")) {
    if (!sim->is_object()) return Fail(path, "sim is not an object");
  }

  size_t rows = 0;
  for (const auto& [tname, table] : tables->AsObject()) {
    rows += table.Find("rows")->AsArray().size();
  }
  if (!CheckFloors(path, doc, floors)) return false;

  std::printf("OK   %s: %zu tables, %zu rows, %zu metrics\n", path.c_str(),
              tables->AsObject().size(), rows, metrics->AsObject().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Floor> floors;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--floor=", 0) == 0) {
      Floor floor;
      if (!ParseFloor(arg, &floor)) {
        std::fprintf(stderr, "malformed %s (want --floor=<metric>=<min>)\n",
                     arg.c_str());
        return 2;
      }
      floors.push_back(floor);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: evc_bench_check [--floor=<metric>=<min>]... "
                 "BENCH.json [...]\n");
    return 2;
  }
  bool all_ok = true;
  for (const std::string& path : paths) {
    all_ok &= CheckFile(path, &floors);
  }
  // A floor naming a metric no file reports is a misconfigured gate, not a
  // silent pass.
  for (const Floor& floor : floors) {
    if (!floor.seen) {
      std::fprintf(stderr, "FAIL floor metric %s not found in any file\n",
                   floor.metric.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

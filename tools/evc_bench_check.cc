// evc_bench_check — schema validator for evc-bench-v1 documents.
//
// Usage: evc_bench_check BENCH_a.json [...]
//
// Validates every file and exits nonzero if any violates the schema or
// records a claim that does not hold, so CI can gate on bench output
// staying machine-readable and on every figure's claims:
//   * top level is an object with schema == "evc-bench-v1" and a nonempty
//     string name;
//   * metrics is an object of numbers;
//   * notes (optional) is an object of strings;
//   * tables is an object; each table has a nonempty columns array of
//     strings and a rows array where every row is an array of exactly
//     columns.size() scalar cells (bool / number / string);
//   * claims (optional) is an object; each claim is an object with a bool
//     holds, which must be true, and a string text;
//   * sim (optional) is an object.

#include <cstdio>
#include <string>

#include "obs/json.h"

namespace {

using evc::obs::Json;

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

/// Fails a claims section that is malformed or records a false claim.
bool CheckClaims(const std::string& path, const Json& claims) {
  if (!claims.is_object()) return Fail(path, "claims is not an object");
  for (const auto& [name, claim] : claims.AsObject()) {
    const Json* holds = claim.Find("holds");
    const Json* text = claim.Find("text");
    if (holds == nullptr || !holds->is_bool() || text == nullptr ||
        !text->is_string()) {
      return Fail(path, "claim " + name + " needs a bool holds and a string "
                                          "text");
    }
    if (!holds->AsBool()) {
      return Fail(path, "claim " + name + " does not hold: " +
                            text->AsString());
    }
  }
  return true;
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

bool CheckFile(const std::string& path) {
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

  const Json* claims = doc.Find("claims");
  if (claims != nullptr && !CheckClaims(path, *claims)) return false;

  if (const Json* sim = doc.Find("sim")) {
    if (!sim->is_object()) return Fail(path, "sim is not an object");
  }

  size_t rows = 0;
  for (const auto& [tname, table] : tables->AsObject()) {
    rows += table.Find("rows")->AsArray().size();
  }
  std::printf("OK   %s: %zu tables, %zu rows, %zu metrics, %zu claims\n",
              path.c_str(), tables->AsObject().size(), rows,
              metrics->AsObject().size(),
              claims == nullptr ? size_t{0} : claims->AsObject().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: evc_bench_check BENCH.json [...]\n");
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) all_ok = CheckFile(argv[i]) && all_ok;
  return all_ok ? 0 : 1;
}

#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/status.h"
#include "obs/export.h"
#include "sim/simulator.h"

namespace evc::bench {

namespace {

std::string Cell(const obs::Json& v) {
  if (v.is_string()) return v.AsString();
  if (v.type() == obs::Json::Type::kDouble) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v.AsDouble());
    return buf;
  }
  return v.Dump();  // integers and booleans
}

/// Appends `title`, then `rows` under `columns`, each column padded to its
/// widest cell.
void AppendTable(std::string* out, const std::string& title,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<obs::Json>>& rows) {
  std::vector<std::vector<std::string>> lines = {columns};
  for (const auto& row : rows) {
    std::vector<std::string>& cells = lines.emplace_back();
    for (const auto& v : row) cells.push_back(Cell(v));
  }
  std::vector<size_t> width(columns.size(), 0);
  for (const auto& cells : lines) {
    for (size_t c = 0; c < cells.size(); ++c) {
      width[c] = std::max(width[c], cells[c].size());
    }
  }
  *out += "\n--- " + title + " ---\n";
  for (const auto& cells : lines) {
    for (size_t c = 0; c < cells.size(); ++c) {
      *out += cells[c];
      if (c + 1 < cells.size()) {
        out->append(width[c] - cells[c].size() + 2, ' ');
      }
    }
    *out += "\n";
  }
}

}  // namespace

Harness::Harness(std::string name) : name_(std::move(name)) {
  EVC_CHECK(!name_.empty());
}

void Harness::Metric(const std::string& metric, double value) {
  metrics_[metric] = value;
}

void Harness::Note(const std::string& key, std::string value) {
  notes_[key] = std::move(value);
}

void Harness::Table(const std::string& table,
                    std::vector<std::string> columns) {
  EVC_CHECK(!columns.empty());
  auto [it, inserted] = tables_.try_emplace(table);
  if (inserted) table_order_.push_back(table);
  it->second.columns = std::move(columns);
  it->second.rows.clear();
}

void Harness::Row(const std::string& table, std::vector<obs::Json> values) {
  auto it = tables_.find(table);
  EVC_CHECK(it != tables_.end());
  EVC_CHECK(values.size() == it->second.columns.size());
  it->second.rows.push_back(std::move(values));
}

void Harness::Claim(const std::string& name, bool holds, std::string text) {
  EVC_CHECK(!name.empty());
  const bool inserted =
      claims_.try_emplace(name, ClaimData{holds, std::move(text)}).second;
  EVC_CHECK(inserted);
}

void Harness::AttachSim(const sim::Simulator& sim) {
  sim_ = obs::MetricsToJson(sim.metrics());
}

std::string Harness::ToJson() const {
  obs::Json::Object root;
  root["schema"] = obs::Json("evc-bench-v1");
  root["name"] = obs::Json(name_);

  obs::Json::Object metrics;
  for (const auto& [k, v] : metrics_) metrics[k] = obs::Json(v);
  root["metrics"] = obs::Json(std::move(metrics));

  obs::Json::Object notes;
  for (const auto& [k, v] : notes_) notes[k] = obs::Json(v);
  root["notes"] = obs::Json(std::move(notes));

  obs::Json::Object tables;
  for (const auto& [name, data] : tables_) {
    obs::Json::Object table;
    obs::Json::Array columns;
    for (const auto& c : data.columns) columns.push_back(obs::Json(c));
    table["columns"] = obs::Json(std::move(columns));
    obs::Json::Array rows;
    for (const auto& row : data.rows) {
      obs::Json::Array cells;
      for (const auto& cell : row) cells.push_back(cell);
      rows.push_back(obs::Json(std::move(cells)));
    }
    table["rows"] = obs::Json(std::move(rows));
    tables[name] = obs::Json(std::move(table));
  }
  root["tables"] = obs::Json(std::move(tables));

  if (!claims_.empty()) {
    obs::Json::Object claims;
    for (const auto& [name, claim] : claims_) {
      obs::Json::Object entry;
      entry["holds"] = obs::Json(claim.holds);
      entry["text"] = obs::Json(claim.text);
      claims[name] = obs::Json(std::move(entry));
    }
    root["claims"] = obs::Json(std::move(claims));
  }

  if (!sim_.is_null()) root["sim"] = sim_;
  return obs::Json(std::move(root)).Dump(2) + "\n";
}

std::string Harness::ToText() const {
  std::string out;
  for (const auto& [k, v] : notes_) out += k + ": " + v + "\n";
  for (const std::string& name : table_order_) {
    const TableData& data = tables_.at(name);
    AppendTable(&out, name, data.columns, data.rows);
  }
  if (!metrics_.empty()) {
    std::vector<std::vector<obs::Json>> rows;
    for (const auto& [k, v] : metrics_) rows.push_back({k, v});
    AppendTable(&out, "metrics", {"metric", "value"}, rows);
  }
  if (!claims_.empty()) out += "\n";
  for (const auto& [name, claim] : claims_) {
    out += (claim.holds ? "PASS " : "FAIL ") + name + ": " + claim.text + "\n";
  }
  return out;
}

Status Harness::Write() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("EVC_BENCH_OUT");
      dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  Status status = obs::WriteFile(path, ToJson());
  if (!status.ok()) {
    std::fprintf(stderr, "bench harness: failed to write %s: %s\n",
                 path.c_str(), status.ToString().c_str());
  } else {
    std::fprintf(stderr, "bench harness: wrote %s\n", path.c_str());
  }
  return status;
}

int Harness::Finish() const {
  std::fputs(ToText().c_str(), stdout);
  std::fflush(stdout);
  bool ok = Write().ok();
  for (const auto& [name, claim] : claims_) ok = ok && claim.holds;
  return ok ? 0 : 1;
}

}  // namespace evc::bench

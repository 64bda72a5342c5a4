// Shared result harness for the bench binaries.
//
// A bench records its numbers here and nowhere else: the harness prints
// them, checks the figure's claims and writes the machine-readable
// `BENCH_<name>.json` (schema `evc-bench-v1`). The export is deterministic:
// same binary + same seeds => byte-identical JSON (no wall-clock timestamps,
// sorted keys, fixed float formatting), which lets a test pin bench output
// across commits.
//
// Schema `evc-bench-v1`:
//   {
//     "schema":  "evc-bench-v1",
//     "name":    "<bench name>",
//     "metrics": { "<metric>": <number>, ... },
//     "notes":   { "<key>": "<string>", ... },
//     "tables":  { "<table>": { "columns": ["c1", ...],
//                               "rows": [[v, ...], ...] }, ... },
//     "claims":  { "<claim>": { "holds": <bool>, "text": "<string>" },
//                  ... },                             // optional, Claim
//     "sim":     { <evc-metrics-v1 document> }        // optional, AttachSim
//   }
//
// Output location: `$EVC_BENCH_OUT/BENCH_<name>.json` when the environment
// variable is set, else the current working directory.

#ifndef EVC_BENCH_HARNESS_H_
#define EVC_BENCH_HARNESS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace evc::sim {
class Simulator;
}  // namespace evc::sim

namespace evc::bench {

class Harness {
 public:
  /// `name` names the output file: BENCH_<name>.json.
  explicit Harness(std::string name);

  /// Records a scalar headline metric (overwrites on re-record).
  void Metric(const std::string& metric, double value);

  /// Records a free-form string annotation (setup, config, ...).
  void Note(const std::string& key, std::string value);

  /// Declares a table and its column names. Must precede Row() for `table`.
  void Table(const std::string& table, std::vector<std::string> columns);

  /// Appends one row; `values.size()` must equal the declared column count.
  void Row(const std::string& table, std::vector<obs::Json> values);

  /// Records one claim the figure makes about its numbers: `text` states
  /// it, `holds` says whether the measured numbers bear it out. Each name
  /// is recorded once. A claim that does not hold fails Finish().
  void Claim(const std::string& name, bool holds, std::string text);

  /// Snapshots a simulator's metrics registries into the "sim" section
  /// (evc-metrics-v1). Last call wins; benches that run many simulators
  /// typically attach the final/representative one or none at all.
  void AttachSim(const sim::Simulator& sim);

  /// The full evc-bench-v1 document.
  std::string ToJson() const;

  /// The notes, every table (in declaration order), the metrics and one
  /// PASS or FAIL line per claim, as aligned plain text.
  std::string ToText() const;

  /// Writes BENCH_<name>.json (see file comment for where). Logs and
  /// returns the error on failure.
  Status Write() const;

  /// Prints ToText() to stdout and writes the JSON. Returns the bench's
  /// exit code: 0 when the write succeeded and every claim holds, else 1.
  int Finish() const;

 private:
  struct TableData {
    std::vector<std::string> columns;
    std::vector<std::vector<obs::Json>> rows;
  };
  struct ClaimData {
    bool holds = false;
    std::string text;
  };

  std::string name_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, TableData> tables_;
  std::vector<std::string> table_order_;  // declaration order, for ToText
  std::map<std::string, ClaimData> claims_;
  obs::Json sim_;  // null until AttachSim
};

}  // namespace evc::bench

#endif  // EVC_BENCH_HARNESS_H_

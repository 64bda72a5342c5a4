// evc_stack_bench — host cost and virtual latency per client op, end to end
// and layer by layer, on four store workloads.
//
// Usage:
//   evc_stack_bench [--workload=NAME|all] [--seed=N] [--seconds=S]
//                   [--trace=0|1] [--smoke]
//   evc_stack_bench --compare=DIR_A,DIR_B
//   evc_stack_bench --check-catalog=BENCHMARK.json
//
// Flags also accept the space-separated form (--seed 3). A run forks one
// child per rep so each rep's CPU time and peak RSS are its own; reps are
// interleaved round-robin across the selected workloads because host speed
// drifts on shared machines. --seconds keeps starting rounds while they fit
// in S seconds (at least 5); without it 7 rounds run. Each round of a store
// workload runs its own seed, derived from --seed; a last round replays the
// first round's seeds to catch hidden nondeterminism.
//
// Output: BENCH_stack_<workload>.json (evc-bench-v1) per workload in
// $EVC_BENCH_OUT (or the working directory); with --trace=1 also
// TRACE_stack_<workload>.json (evc-trace-v1). The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or the per-layer metrics with --trace=1. Exit status: 0 when
// every self-check passed, 1 when one failed, 2 on usage errors.

#include <malloc.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog.h"
#include "common/hash.h"
#include "compare.h"
#include "harness.h"
#include "host_clock.h"
#include "host_trace.h"
#include "obs/export.h"
#include "quantiles.h"
#include "workloads.h"

namespace evc::stack {

namespace {

/// Rounds a run without --seconds makes, before the replay round.
constexpr int kDefaultReps = 7;
constexpr int kMinTimedReps = 5;
constexpr int kTracerOffReps = 3;

struct Args {
  std::vector<Workload> workloads;
  uint64_t seed = 1;
  double seconds = 0;  ///< 0: run kDefaultReps rounds
  bool trace = false;
  bool smoke = false;
  std::string compare;
  std::string check_catalog;
};

void Usage() {
  std::fprintf(stderr,
               "usage: evc_stack_bench [--workload=NAME|all] [--seed=N] "
               "[--seconds=S]\n"
               "                       [--trace=0|1] [--smoke]\n"
               "       evc_stack_bench --compare=DIR_A,DIR_B\n"
               "       evc_stack_bench --check-catalog=BENCHMARK.json\n"
               "  workloads:");
  for (Workload w : AllWorkloads()) std::fprintf(stderr, " %s", WorkloadName(w));
  std::fprintf(stderr, "\n");
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    const bool is_switch = flag == "--smoke";
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (!is_switch) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "evc_stack_bench: %s needs a value\n",
                     flag.c_str());
        return false;
      }
      value = argv[++i];
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n <= 3600) {
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--compare" && !value.empty()) {
      args->compare = value;
    } else if (flag == "--check-catalog" && !value.empty()) {
      args->check_catalog = value;
    } else {
      std::fprintf(stderr, "evc_stack_bench: bad argument %s=%s\n",
                   flag.c_str(), value.c_str());
      return false;
    }
  }
  if (workload.empty() || workload == "all") {
    args->workloads = AllWorkloads();
    return true;
  }
  Workload w;
  if (!ParseWorkload(workload, &w)) {
    std::fprintf(stderr, "evc_stack_bench: unknown workload %s\n",
                 workload.c_str());
    return false;
  }
  args->workloads = {w};
  return true;
}

/// The seed of round `round`. A store workload's rounds each run their own
/// seed, so a run's medians average over many inputs rather than resting on
/// one: round 0 runs --seed itself, later rounds a hash of it and the round,
/// so runs with nearby seeds share no rounds. Every fuzz-sweep round sweeps
/// the same seeds [S, S + 100).
uint64_t RoundSeed(Workload w, uint64_t seed, int round) {
  if (round == 0 || !IsStoreWorkload(w)) return seed;
  return Mix64(Mix64(seed) + static_cast<uint64_t>(round));
}

/// Host times are reported in calibrated units: the measured CPU time
/// scaled by kReferenceCalibrationNs over the calibration kernel's CPU time
/// averaged just before and just after the rep (see CalibrationCpuNs). The
/// reference is a fixed constant, so calibrated values read as CPU time on
/// a host where the kernel takes 14 ms; comparisons between runs do not
/// depend on it. The raw values stay in the reports as <metric>_raw, next
/// to calibration_ms.
constexpr double kReferenceCalibrationNs = 14e6;

RepResult CalibratedRep(Workload workload, const RepOptions& options) {
  const int64_t before = CalibrationCpuNs();
  RepResult rep = RunRep(workload, options);
  const int64_t after = CalibrationCpuNs();
  const double calibration = static_cast<double>(before + after) / 2.0;
  rep.metrics["calibration_ms"] = calibration / 1e6;
  for (const char* name : {"host_us_per_op", "setup_s"}) {
    const double raw = rep.metrics.at(name);
    rep.metrics[std::string(name) + "_raw"] = raw;
    rep.metrics[name] = raw * kReferenceCalibrationNs / calibration;
  }
  return rep;
}

/// Runs one rep in a forked child and returns what it reported; nullopt
/// when the child died or reported garbage.
std::optional<RepResult> RunChild(Workload workload, const RepOptions& options) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("evc_stack_bench: pipe");
    return std::nullopt;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("evc_stack_bench: fork");
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string out = CalibratedRep(workload, options).ToJson().Dump();
    size_t written = 0;
    while (written < out.size()) {
      const ssize_t n = write(fds[1], out.data() + written, out.size() - written);
      if (n <= 0) _exit(3);
      written += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "evc_stack_bench: %s rep child failed (status %d)\n",
                 WorkloadName(workload), status);
    return std::nullopt;
  }
  auto parsed = obs::Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "evc_stack_bench: bad rep report: %s\n",
                 parsed.status().ToString().c_str());
    return std::nullopt;
  }
  RepResult rep = RepResult::FromJson(*parsed);
  rep.seed = options.seed;
  return rep;
}

std::vector<double> ValuesOf(const std::vector<RepResult>& reps,
                             const std::string& metric) {
  std::vector<double> out;
  for (const RepResult& r : reps) {
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) out.push_back(it->second);
  }
  return out;
}

/// Self-checks over one workload's reps; returns the violations.
std::vector<std::string> CheckReps(Workload w,
                                   const std::vector<RepResult>& reps) {
  std::vector<std::string> problems;
  for (const RepResult& r : reps) {
    for (const std::string& p : r.problems) problems.push_back(p);
  }
  // Counts and virtual-time metrics are pure functions of the seed: any
  // difference between reps of one seed is hidden nondeterminism.
  std::vector<MetricDef> defs = EndToEndMetrics(w);
  for (const MetricDef& d : PerLayerMetrics(w)) defs.push_back(d);
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& a = reps[i];
    for (size_t j = i + 1; j < reps.size(); ++j) {
      const RepResult& b = reps[j];
      if (a.seed != b.seed) continue;
      for (const MetricDef& d : defs) {
        const auto x = a.metrics.find(d.name);
        const auto y = b.metrics.find(d.name);
        if (d.kind == MetricKind::kVirtual && x != a.metrics.end() &&
            y != b.metrics.end() && x->second != y->second) {
          problems.push_back(std::string("nondeterministic across reps: ") +
                             d.name);
        }
      }
      if (a.attempted != b.attempted || a.failed != b.failed ||
          a.stale_reads != b.stale_reads) {
        problems.push_back("op counts differ across reps");
      }
    }
  }
  // Fuzz failures repeat in every rep; report each once.
  std::sort(problems.begin(), problems.end());
  problems.erase(std::unique(problems.begin(), problems.end()),
                 problems.end());
  return problems;
}

struct WorkloadRun {
  Workload workload;
  std::vector<RepResult> reps;
  std::vector<std::string> problems;
  /// Traced-run results (per-layer values) when --trace=1.
  std::map<std::string, double> layer;
  std::vector<HostTrace::SelfTimeRow> self_time;
};

std::string OutPath(const std::string& file) {
  const char* dir = std::getenv("EVC_BENCH_OUT");
  return dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" + file
                                          : file;
}

/// The traced in-process rep, the tracer-off arm and the probes.
bool RunTraced(const Args& args, double scale, WorkloadRun* run) {
  const Workload w = run->workload;
  // The traced rep runs round 0's seed; compare it with the measured reps
  // of that seed (round 0 and its replay).
  std::vector<double> untraced;
  for (const RepResult& r : run->reps) {
    if (r.seed == args.seed) untraced.push_back(r.metrics.at("host_us_per_op"));
  }
  HostTrace trace;
  RepOptions options{args.seed, scale, true, &trace};
  const RepResult traced = CalibratedRep(w, options);
  for (const auto& [name, value] : traced.metrics) run->layer[name] = value;
  run->layer["trace.overhead_ratio"] =
      traced.metrics.at("host_us_per_op") / MedianOf(untraced);
  if (IsStoreWorkload(w)) {
    // The tracer-off arm reruns the first rounds' seeds with the
    // simulator's tracer disabled.
    const size_t n = std::min<size_t>(kTracerOffReps, run->reps.size());
    std::vector<double> on;
    std::vector<double> off;
    for (size_t i = 0; i < n; ++i) {
      on.push_back(run->reps[i].metrics.at("host_us_per_op"));
      std::optional<RepResult> r = RunChild(
          w, RepOptions{run->reps[i].seed, scale, false, nullptr});
      if (!r.has_value()) return false;
      off.push_back(r->metrics.at("host_us_per_op"));
    }
    run->layer["obs.tracer_share"] = 1.0 - MedianOf(off) / MedianOf(on);
  }
  run->self_time = trace.SelfTime();
  const std::string path =
      OutPath(std::string("TRACE_stack_") + WorkloadName(w) + ".json");
  const Status status = obs::WriteFile(path, trace.ToTraceJson().Dump() + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "evc_stack_bench: %s\n", status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "evc_stack_bench: wrote %s\n", path.c_str());
  return true;
}

/// Value of per-layer metric `name`: traced-run values first, then the
/// median over measured reps (counts repeat exactly); absent layers are 0.
double LayerValue(const WorkloadRun& run, const std::string& name) {
  const auto it = run.layer.find(name);
  if (it != run.layer.end()) return it->second;
  const std::vector<double> v = ValuesOf(run.reps, name);
  return v.empty() ? 0.0 : MedianOf(v);
}

bool WriteReport(const Args& args, double scale, double wall_s,
                 const WorkloadRun& run) {
  const Workload w = run.workload;
  bench::Harness h(std::string("stack_") + WorkloadName(w));
  h.Note("why", WorkloadWhy(w));
  h.Note("seed", std::to_string(args.seed));
  h.Note("scale", std::to_string(scale));
  h.Note("reps", std::to_string(run.reps.size()));
  std::string seeds;
  for (const RepResult& r : run.reps) {
    seeds += (seeds.empty() ? "" : ",") + std::to_string(r.seed);
  }
  h.Note("rep_seeds", seeds);
  h.Note("wall_s", std::to_string(wall_s));
  h.Note("problems", std::to_string(run.problems.size()));
  h.Table("end_to_end", {"metric", "unit", "lower_is_better", "bound",
                         "relative", "floor", "median", "q1", "q3", "n"});
  h.Table("reps", {"metric", "rep", "value"});
  for (const MetricDef& d : EndToEndMetrics(w)) {
    const std::vector<double> v = ValuesOf(run.reps, d.name);
    const Quartiles q = QuartilesOf(v);
    h.Metric(d.name, q.median);
    h.Row("end_to_end",
          {obs::Json(d.name), obs::Json(d.unit), obs::Json(d.lower_is_better),
           obs::Json(d.bound), obs::Json(d.relative), obs::Json(d.floor),
           obs::Json(q.median), obs::Json(q.q1), obs::Json(q.q3),
           obs::Json(static_cast<uint64_t>(v.size()))});
    for (size_t i = 0; i < v.size(); ++i) {
      h.Row("reps", {obs::Json(d.name), obs::Json(static_cast<uint64_t>(i)),
                     obs::Json(v[i])});
    }
  }
  // The uncalibrated host times and the calibration itself.
  for (const char* name : {"host_us_per_op_raw", "setup_s_raw",
                           "calibration_ms"}) {
    const std::vector<double> v = ValuesOf(run.reps, name);
    h.Metric(name, MedianOf(v));
    for (size_t i = 0; i < v.size(); ++i) {
      h.Row("reps", {obs::Json(name), obs::Json(static_cast<uint64_t>(i)),
                     obs::Json(v[i])});
    }
  }
  // Untraced runs have the per-layer values the reps measure themselves;
  // probes and issue costs come only from the traced run.
  for (const MetricDef& d : PerLayerMetrics(w)) {
    if (args.trace || !ValuesOf(run.reps, d.name).empty()) {
      h.Metric(d.name, LayerValue(run, d.name));
    }
  }
  if (!run.self_time.empty()) {
    double total = 0;
    for (const auto& row : run.self_time) total += row.self_ms;
    h.Table("self_time", {"span", "count", "total_ms", "self_ms", "self_share"});
    for (const auto& row : run.self_time) {
      h.Row("self_time",
            {obs::Json(row.name), obs::Json(row.count), obs::Json(row.total_ms),
             obs::Json(row.self_ms),
             obs::Json(total > 0 ? row.self_ms / total : 0.0)});
    }
  }
  return h.Write().ok();
}

obs::Json ValueWithUnit(double value, const char* unit) {
  obs::Json::Object o;
  o["value"] = obs::Json(value);
  o["unit"] = obs::Json(unit);
  return obs::Json(std::move(o));
}

int Run(const Args& args) {
  const double scale = args.smoke ? 0.1 : 1.0;
  const int min_rounds = args.smoke ? 1 : (args.seconds > 0 ? kMinTimedReps
                                                            : kDefaultReps);
  std::vector<WorkloadRun> runs;
  for (Workload w : args.workloads) runs.push_back({w, {}, {}, {}, {}});

  const int64_t start = WallNowNs();
  auto elapsed_s = [start] {
    return static_cast<double>(WallNowNs() - start) / 1e9;
  };
  auto run_round = [&](int round) {
    for (WorkloadRun& run : runs) {
      const uint64_t seed = RoundSeed(run.workload, args.seed, round);
      std::optional<RepResult> rep =
          RunChild(run.workload, RepOptions{seed, scale, true, nullptr});
      if (!rep.has_value()) return false;
      run.reps.push_back(std::move(*rep));
    }
    return true;
  };
  int rounds = 0;
  for (;; ++rounds) {
    if (rounds >= min_rounds) {
      // Leave room for one more round and the replay.
      const double per_round = elapsed_s() / rounds;
      if (args.seconds <= 0 || elapsed_s() + 2 * per_round > args.seconds) {
        break;
      }
    }
    if (!run_round(rounds)) return 1;
  }
  // The replay of round 0, which CheckReps compares with it.
  if (rounds > 1 && !run_round(0)) return 1;
  const double wall_s = elapsed_s();

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  obs::Json::Object metrics;
  const bool prefix = runs.size() > 1;
  for (WorkloadRun& run : runs) {
    run.problems = CheckReps(run.workload, run.reps);
    if (args.trace && !RunTraced(args, scale, &run)) return 1;
    for (const std::string& p : run.problems) {
      std::fprintf(stderr, "SELF-CHECK FAILED [%s]: %s\n",
                   WorkloadName(run.workload), p.c_str());
    }
    correct = correct && run.problems.empty();
    if (!WriteReport(args, scale, wall_s, run)) return 1;
    for (const RepResult& r : run.reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
    const std::string name_prefix =
        prefix ? std::string(WorkloadName(run.workload)) + "." : "";
    if (args.trace) {
      for (const MetricDef& d : PerLayerMetrics(run.workload)) {
        metrics[name_prefix + d.name] =
            ValueWithUnit(LayerValue(run, d.name), d.unit);
      }
    } else {
      for (const MetricDef& d : EndToEndMetrics(run.workload)) {
        if (!d.relative) continue;
        metrics[name_prefix + d.name] =
            ValueWithUnit(MedianOf(ValuesOf(run.reps, d.name)), d.unit);
      }
    }
  }
  obs::Json::Object line;
  line["correct"] = obs::Json(correct);
  line["attempted"] = obs::Json(attempted);
  line["failed"] = obs::Json(failed);
  line["metrics"] = obs::Json(std::move(metrics));
  std::printf("%s\n", obs::Json(std::move(line)).Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace evc::stack

int main(int argc, char** argv) {
  evc::stack::Args args;
  if (!evc::stack::ParseArgs(argc, argv, &args)) {
    evc::stack::Usage();
    return 2;
  }
  if (!args.compare.empty()) return evc::stack::CompareDirs(args.compare);
  if (!args.check_catalog.empty()) {
    return evc::stack::CheckBenchmarkJson(args.check_catalog);
  }
  // A fixed threshold turns off glibc's sliding one, under which freeing a
  // large buffer moves later ones from mmap to the heap; whether the heap
  // then keeps the freed space resident depends on allocation order, so
  // peak RSS would jump between two values from seed to seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return evc::stack::Run(args);
}

// evc_fuzz: fault-schedule consistency fuzzer for the simulation testbed.
//
// Runs N seeds of randomized nemesis schedules (partitions, crashes, message
// loss/duplication) against each selected store and checks the properties
// its consistency level claims (see verify/fuzz.h for the claims table).
//
// Usage:
//   evc_fuzz                          # default sweep: all stores, 25 seeds
//   evc_fuzz --seeds=200              # wider sweep
//   evc_fuzz --store=quorum-weak      # one store only
//   evc_fuzz --store=paxos --seed=42  # replay one seed (bit-identical)
//   evc_fuzz --amnesia                # crashes drop volatile state (WAL
//                                     # recovery on restart)
//   evc_fuzz --profile=crash-heavy    # schedule biased toward crash/restart
//                                     # churn (no loss/duplication ramps)
//   evc_fuzz --profile=gray-heavy     # gray failures: slow/flaky links and
//                                     # slow nodes mixed with crashes, no
//                                     # clean partitions
//   evc_fuzz --profile=edge-cache     # crash + gray interleavings tuned for
//                                     # the lease protocol (amnesia forced
//                                     # on: lease tables must be volatile)
//   evc_fuzz --profile=overload       # flash crowds + hot-key shifts with
//                                     # the overload defenses armed
//   evc_fuzz --store=quorum-elastic --profile=elastic
//                                     # membership churn: live add/remove +
//                                     # rolling restarts + gray degradation,
//                                     # no partitions or hard crashes
//   evc_fuzz --verbose                # per-seed summaries and replay lines,
//                                     # not just failures
//
// Exit code: 0 when every store met its claims on every seed, 1 otherwise.
// A failing run prints the command that replays it: --store and --seed plus
// every flag that changed its options (--profile, --amnesia).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "verify/fuzz.h"

namespace {

struct CliOptions {
  uint64_t first_seed = 1;
  int seeds = 25;
  std::optional<evc::verify::FuzzStore> store;
  std::optional<uint64_t> single_seed;
  bool verbose = false;
  bool amnesia = false;
  // "" (default) or a verify::ApplyFuzzProfile name
  std::string profile;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds=N] [--first-seed=S] [--store=NAME] "
               "[--seed=S] [--amnesia] "
               "[--profile=crash-heavy|gray-heavy|edge-cache|elastic|"
               "overload] "
               "[--verbose]\n"
               "  stores:",
               argv0);
  for (evc::verify::FuzzStore s : evc::verify::AllFuzzStores()) {
    std::fprintf(stderr, " %s", evc::verify::ToString(s));
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--seeds=")) {
      cli->seeds = std::atoi(v);
      if (cli->seeds <= 0) return false;
    } else if (const char* v = value_of("--first-seed=")) {
      cli->first_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seed=")) {
      cli->single_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--store=")) {
      evc::verify::FuzzStore store;
      if (!evc::verify::ParseFuzzStore(v, &store)) {
        std::fprintf(stderr, "unknown store '%s'\n", v);
        return false;
      }
      cli->store = store;
    } else if (const char* v = value_of("--profile=")) {
      cli->profile = v;
    } else if (arg == "--amnesia") {
      cli->amnesia = true;
    } else if (arg == "--verbose" || arg == "-v") {
      cli->verbose = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 2;
  }

  std::vector<evc::verify::FuzzStore> stores =
      cli.store ? std::vector<evc::verify::FuzzStore>{*cli.store}
                : evc::verify::AllFuzzStores();

  int failures = 0;
  uint64_t anomalies_recorded = 0;
  for (evc::verify::FuzzStore store : stores) {
    for (int i = 0; i < cli.seeds; ++i) {
      const uint64_t seed =
          cli.single_seed ? *cli.single_seed
                          : cli.first_seed + static_cast<uint64_t>(i);
      evc::verify::FuzzOptions options =
          evc::verify::DefaultFuzzOptions(store, seed);
      options.amnesia = cli.amnesia;
      if (!evc::verify::ApplyFuzzProfile(cli.profile, &options)) {
        std::fprintf(stderr, "unknown profile '%s'\n", cli.profile.c_str());
        return 2;
      }
      const evc::verify::FuzzReport report = evc::verify::RunFuzzSeed(options);
      if (report.AnomalyDetected()) ++anomalies_recorded;
      std::string why;
      const bool ok = report.MeetsClaims(&why);
      if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", why.c_str());
      }
      if (!ok || cli.verbose) {
        // Every flag that changed this run's options, so the line replays it.
        std::string flags = "--store=";
        flags += evc::verify::ToString(store);
        flags += " --seed=" + std::to_string(seed);
        if (!cli.profile.empty()) flags += " --profile=" + cli.profile;
        if (cli.amnesia) flags += " --amnesia";
        std::printf("%s %s\n     replay: %s %s\n", ok ? "ok  " : "    ",
                    report.Summary().c_str(), argv[0], flags.c_str());
      }
      if (cli.single_seed) break;  // one seed per store in replay mode
    }
  }

  const int runs = static_cast<int>(stores.size()) *
                   (cli.single_seed ? 1 : cli.seeds);
  std::printf("%d run(s), %d claim failure(s), %llu run(s) with recorded "
              "anomalies (expected for weak stores)\n",
              runs, failures,
              static_cast<unsigned long long>(anomalies_recorded));
  return failures == 0 ? 0 : 1;
}

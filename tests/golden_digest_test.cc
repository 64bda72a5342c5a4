// Golden export digests: every CI fuzz cell, pinned byte for byte.
//
// tests/golden/fuzz_digests.txt holds one line per (profile, store, seed)
// cell of the six CI fuzz profiles x seeds 1..25:
//
//   <profile> <store> <seed> <metrics-fnv> <trace-fnv> <summary>
//
// The two digests are FNV-1a-64 (common/hash.h) of the run's evc-metrics-v1
// JSON and trace CSV exports (obs/export.h); the summary is
// FuzzReport::Summary(). Every counter increment, histogram sample and span
// open/close lands in those exports, so any change to scheduler order, store
// logic or a checker verdict moves at least one cell. Each cell must also
// meet its store's claims.
//
// Changing behaviour on purpose: every run writes the full actual file next
// to the test binary (fuzz_digests.actual.txt). On a mismatch the test names
// each moved cell with its old and new summaries and prints the `cp` command
// that accepts the move; the change then lists the moved cells.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "verify/fuzz.h"

namespace evc::verify {
namespace {

struct Profile {
  const char* name;  ///< cell label
  const char* flag;  ///< ApplyFuzzProfile name
  bool amnesia;      ///< evc_fuzz --amnesia
  std::vector<FuzzStore> stores;
};

// The six CI fuzz smokes. The elastic profile runs only quorum-elastic,
// whose defaults apply it (DefaultFuzzOptions), so its cells are the default
// profile's quorum-elastic cells and are listed once.
std::vector<Profile> Profiles() {
  const std::vector<FuzzStore> all = AllFuzzStores();
  return {
      {"default", "", false, all},
      {"crash-heavy+amnesia", "crash-heavy", true, all},
      {"gray-heavy", "gray-heavy", false, all},
      {"overload", "overload", false, all},
      {"edge-cache", "edge-cache", false, {FuzzStore::kEdgeCache}},
  };
}

constexpr uint64_t kSeeds = 25;

// Position of the n-th space in `line`, or npos when it has fewer.
size_t NthSpace(const std::string& line, int n) {
  size_t pos = std::string::npos;
  for (int i = 0; i < n; ++i) {
    pos = line.find(' ', pos + 1);  // npos + 1 wraps to 0
    if (pos == std::string::npos) break;
  }
  return pos;
}

/// "<profile> <store> <seed>"
std::string CellKey(const std::string& line) {
  return line.substr(0, NthSpace(line, 3));
}

/// "<metrics-fnv> <trace-fnv> <summary>"
std::string CellValue(const std::string& line) {
  const size_t pos = NthSpace(line, 3);
  return pos == std::string::npos ? "" : line.substr(pos + 1);
}

std::string RunCell(const Profile& profile, FuzzStore store, uint64_t seed) {
  FuzzOptions o = DefaultFuzzOptions(store, seed);
  o.amnesia = profile.amnesia;
  EXPECT_TRUE(ApplyFuzzProfile(profile.flag, &o)) << profile.flag;
  std::string metrics;
  std::string trace;
  o.capture_metrics_json = &metrics;
  o.capture_trace_csv = &trace;
  const FuzzReport report = RunFuzzSeed(o);
  std::string why;
  EXPECT_TRUE(report.MeetsClaims(&why))
      << profile.name << " " << ToString(store) << " seed " << seed << ": "
      << why << "\n"
      << report.Summary();
  char digests[64];
  std::snprintf(digests, sizeof(digests), " %016" PRIx64 " %016" PRIx64 " ",
                Fnv1a64(metrics), Fnv1a64(trace));
  std::ostringstream line;
  line << profile.name << " " << ToString(store) << " " << seed << digests
       << report.Summary();
  return line.str();
}

TEST(GoldenDigestTest, EveryCiFuzzCellMatchesItsGoldenDigest) {
  std::vector<std::string> actual;
  for (const Profile& profile : Profiles()) {
    for (FuzzStore store : profile.stores) {
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        actual.push_back(RunCell(profile, store, seed));
      }
    }
  }
  EXPECT_EQ(actual.size(), 925u);

  {
    std::ofstream out(EVC_GOLDEN_ACTUAL);
    for (const std::string& line : actual) out << line << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << EVC_GOLDEN_ACTUAL;
  }

  std::map<std::string, std::string> golden;
  std::ifstream in(EVC_GOLDEN_FILE);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden[CellKey(line)] = line;
  }

  std::ostringstream moved;
  int moved_cells = 0;
  for (const std::string& line : actual) {
    auto it = golden.find(CellKey(line));
    if (it != golden.end() && it->second == line) {
      golden.erase(it);
      continue;
    }
    ++moved_cells;
    moved << "  moved: " << CellKey(line) << "\n";
    if (it == golden.end()) {
      moved << "    old: (no golden line)\n";
    } else {
      moved << "    old: " << CellValue(it->second) << "\n";
      golden.erase(it);
    }
    moved << "    new: " << CellValue(line) << "\n";
  }
  for (const auto& [key, line] : golden) {
    ++moved_cells;
    moved << "  gone:  " << key << "\n";
  }
  EXPECT_EQ(moved_cells, 0)
      << moved_cells << " cell(s) moved:\n"
      << moved.str() << "If the change is meant to move them, accept with:\n"
      << "  cp " << EVC_GOLDEN_ACTUAL << " " << EVC_GOLDEN_FILE;
}

}  // namespace
}  // namespace evc::verify

// Self-test for tools/evc_lint: fixture-based positive/negative coverage per
// check (including the v2 checks: unordered-snapshot, pointer-taint,
// thread-hostile, layering, include-cycle, orphan-module), suppression-comment
// parsing, --werror exit codes, the JSON/DOT/worklist output modes,
// deterministic directory walks, and the compile-fail proof that a dropped
// Status is now a compile error (the [[nodiscard]] attribute on
// Status/Result), not just a scanner finding. The real tree is pinned too:
// zero layering violations, zero cycles, no orphan module but the one
// allowed, and a clean --werror sweep over src/bench/tools/tests/examples.

#include "evc_lint/lint.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace evc::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(EVC_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scans one fixture file (by real path, so path-based exemptions see the
/// fixture directory, not src/obs).
std::vector<Finding> ScanFixture(const std::string& name) {
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      ScanPaths({FixturePath(name)}, Options{}, &errors);
  EXPECT_TRUE(errors.empty());
  return findings;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings,
                         const std::string& check) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    if (f.check == check) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(EvcLint, ListsElevenChecks) {
  const std::vector<std::string>& names = AllCheckNames();
  ASSERT_EQ(names.size(), 11u);
  for (const char* expected :
       {"wall-clock", "raw-random", "unordered-iteration",
        "unordered-snapshot", "discarded-status", "check-macro",
        "pointer-taint", "thread-hostile", "layering", "include-cycle",
        "orphan-module"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing check " << expected;
  }
}

TEST(EvcLint, WallClockPositive) {
  std::vector<Finding> findings = ScanFixture("wall_clock_bad.cc");
  EXPECT_EQ(LinesOf(findings, "wall-clock"),
            (std::vector<int>{7, 8, 9, 10, 12}));
  EXPECT_EQ(findings.size(), 5u) << "no other checks should fire";
}

TEST(EvcLint, WallClockNegative) {
  EXPECT_TRUE(ScanFixture("wall_clock_ok.cc").empty());
}

TEST(EvcLint, WallClockObsExporterPathIsExempt) {
  // The same violating content, presented as the obs exporter shim, is clean:
  // the exporter is the one component allowed to stamp real timestamps.
  SourceFile shim{"src/obs/export.cc", ReadFixture("wall_clock_bad.cc")};
  EXPECT_TRUE(ScanFiles({shim}).empty());
}

TEST(EvcLint, RawRandomPositive) {
  std::vector<Finding> findings = ScanFixture("raw_random_bad.cc");
  EXPECT_EQ(LinesOf(findings, "raw-random"),
            (std::vector<int>{6, 7, 8, 9, 10}));
  EXPECT_EQ(findings.size(), 5u);
}

TEST(EvcLint, RawRandomNegative) {
  EXPECT_TRUE(ScanFixture("raw_random_ok.cc").empty());
}

TEST(EvcLint, UnorderedIterationPositive) {
  std::vector<Finding> findings = ScanFixture("unordered_iteration_bad.cc");
  // Member, getter, local, and alias-typed parameter.
  EXPECT_EQ(LinesOf(findings, "unordered-iteration"),
            (std::vector<int>{18, 19, 21, 22}));
  EXPECT_EQ(findings.size(), 4u);
}

TEST(EvcLint, UnorderedIterationNegative) {
  EXPECT_TRUE(ScanFixture("unordered_iteration_ok.cc").empty());
}

TEST(EvcLint, UnorderedDeclarationInHeaderFlagsIterationInOtherFile) {
  // The declaration (a header) and the iteration (a .cc) are different
  // files; the symbol table must span the whole scan.
  SourceFile header{"reg.h",
                    "#include <unordered_map>\n"
                    "struct Reg { std::unordered_map<int, int> by_id_; };\n"};
  SourceFile impl{"reg.cc",
                  "#include \"reg.h\"\n"
                  "int Sum(const Reg& r) {\n"
                  "  int t = 0;\n"
                  "  for (const auto& kv : r.by_id_) t += kv.second;\n"
                  "  return t;\n"
                  "}\n"};
  std::vector<Finding> findings = ScanFiles({header, impl});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "unordered-iteration");
  EXPECT_EQ(findings[0].file, "reg.cc");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(EvcLint, UnorderedSnapshotPositive) {
  std::vector<Finding> findings = ScanFixture("unordered_snapshot_bad.cc");
  // Iterator-pair constructor, assign(), and a back_inserter copy.
  EXPECT_EQ(LinesOf(findings, "unordered-snapshot"),
            (std::vector<int>{14, 20, 25}));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(EvcLint, UnorderedSnapshotNegative) {
  // Same copies, but every target is std::sort'ed before use.
  EXPECT_TRUE(ScanFixture("unordered_snapshot_ok.cc").empty());
}

TEST(EvcLint, PointerTaintPositive) {
  std::vector<Finding> findings = ScanFixture("pointer_taint_bad.cc");
  // %p format, reinterpret_cast to uintptr_t, C-style cast, hash of pointer.
  EXPECT_EQ(LinesOf(findings, "pointer-taint"),
            (std::vector<int>{15, 19, 23, 27}));
  EXPECT_EQ(findings.size(), 4u);
}

TEST(EvcLint, PointerTaintNegative) {
  // Stable-id alternatives; pointer-to-pointer reinterpret_cast stays legal.
  EXPECT_TRUE(ScanFixture("pointer_taint_ok.cc").empty());
}

TEST(EvcLint, ThreadHostilePositive) {
  // The audit is scoped to src/, so the fixture content is presented under a
  // synthetic src/ path (core is a real module, so no layering noise).
  SourceFile f{"src/core/fixture.cc", ReadFixture("thread_hostile_bad.cc")};
  std::vector<Finding> findings = ScanFiles({f});
  // Mutable global, mutable function-local static, thread_local.
  EXPECT_EQ(LinesOf(findings, "thread-hostile"),
            (std::vector<int>{10, 13, 17}));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(EvcLint, ThreadHostileNegative) {
  SourceFile f{"src/core/fixture.cc", ReadFixture("thread_hostile_ok.cc")};
  EXPECT_TRUE(ScanFiles({f}).empty());
}

TEST(EvcLint, ThreadHostileOnlyAuditsSrc) {
  // The same hostile content under its real tests/lint_fixtures path is not
  // audited: tests and tools may keep process-wide state.
  std::vector<Finding> findings = ScanFixture("thread_hostile_bad.cc");
  EXPECT_TRUE(LinesOf(findings, "thread-hostile").empty());
}

// --- layering DAG ---------------------------------------------------------

TEST(EvcLint, LayerOfPathMapsModulesToLayers) {
  EXPECT_EQ(LayerOfPath("src/common/status.h"), "common");
  EXPECT_EQ(LayerOfPath("src/sim/simulator.h"), "sim");
  // The sim directory hosts two higher sub-layers: the network/fault model
  // and the RPC stack.
  EXPECT_EQ(LayerOfPath("src/sim/network.h"), "net");
  EXPECT_EQ(LayerOfPath("src/sim/rpc.h"), "rpc");
  EXPECT_EQ(LayerOfPath("src/evc.h"), "api");
  EXPECT_EQ(LayerOfPath("src/cache/edge_cache.cc"), "cache");
  EXPECT_EQ(LayerOfPath("tools/evc_lint/lint.cc"), "tools");
}

TEST(EvcLint, LayeringUpwardIncludeIsFlagged) {
  // obs (rank 1) reaching up into sim (rank 2).
  SourceFile f{"src/obs/uses_sim.cc", ReadFixture("layering_upward_bad.cc")};
  std::vector<Finding> findings = ScanFiles({f});
  EXPECT_EQ(LinesOf(findings, "layering"), (std::vector<int>{4}));
  EXPECT_EQ(findings.size(), 1u);
}

TEST(EvcLint, LayeringDownwardIncludeIsClean) {
  // sim (rank 2) depending on common (rank 0) and obs (rank 1) is the legal
  // direction.
  SourceFile f{"src/sim/uses_common.cc", ReadFixture("layering_ok.cc")};
  EXPECT_TRUE(ScanFiles({f}).empty());
}

TEST(EvcLint, LayeringUnknownSrcDirectoryIsFlagged) {
  // A src/ module outside the declared layer table must be reported (at line
  // 1) so new directories get ranked instead of silently escaping the DAG.
  SourceFile f{"src/newmod/foo.cc", "int F() { return 0; }\n"};
  std::vector<Finding> findings = ScanFiles({f});
  EXPECT_EQ(LinesOf(findings, "layering"), (std::vector<int>{1}));
}

TEST(EvcLint, IncludeCycleAcrossFixtureHeadersIsFlagged) {
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      ScanPaths({FixturePath("layering_cycle_a.h"),
                 FixturePath("layering_cycle_b.h")},
                Options{}, &errors);
  EXPECT_TRUE(errors.empty());
  // One deduplicated report for the two-file cycle, anchored at the
  // lexicographically-first member's include line.
  std::vector<int> lines = LinesOf(findings, "include-cycle");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 6);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(EvcLint, HalfOfACycleAloneIsNotACycle) {
  // Scanning only one half leaves the include unresolved inside the scanned
  // set; no edge, no cycle.
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      ScanPaths({FixturePath("layering_cycle_a.h")}, Options{}, &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(LinesOf(findings, "include-cycle").empty());
}

TEST(EvcLint, SameRankLayerCycleIsFlagged) {
  // clock and obs share rank 1: each may include the other's layer only
  // while the layer-level graph stays acyclic.
  SourceFile tick{"src/clock/tick.h", "#include \"obs/hook.h\"\nint T();\n"};
  SourceFile hook{"src/obs/hook.h", "#include \"clock/tick.h\"\nint H();\n"};
  std::vector<Finding> findings = ScanFiles({tick, hook});
  // Both the file-level cycle and the same-rank layer cycle are reported.
  EXPECT_EQ(LinesOf(findings, "include-cycle").size(), 2u);
  EXPECT_TRUE(LinesOf(findings, "layering").empty())
      << "same-rank includes are not upward edges";
}

// --- orphan modules ---------------------------------------------------------

TEST(EvcLint, OrphanModulePositive) {
  // A mini tree whose widget header is included only by the umbrella
  // header, its own .cc and a test: one finding, at the include guard.
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      ScanPaths({FixturePath("orphan_module_bad")}, Options{}, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "orphan-module");
  EXPECT_EQ(findings[0].file,
            FixturePath("orphan_module_bad") + "/src/crdt/widget.h");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(EvcLint, OrphanModuleNegative) {
  // The same tree plus one example that includes the header. Examples are
  // .cpp files, and they count as users.
  std::vector<std::string> errors;
  EXPECT_TRUE(
      ScanPaths({FixturePath("orphan_module_ok")}, Options{}, &errors)
          .empty());
  EXPECT_TRUE(errors.empty());
}

// --- real-tree pins -------------------------------------------------------

std::string ReadRealSource(const std::string& rel) {
  std::ifstream in(std::string(EVC_SRC_INCLUDE_DIR) + "/" + rel,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing source " << rel;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string ReadRepoFile(const std::string& rel) {
  std::ifstream in(std::string(EVC_REPO_ROOT_DIR) + "/" + rel,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing repo file " << rel;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Removes the first line containing `marker`; fails the test if absent.
std::string StripLineContaining(std::string code, const std::string& marker) {
  size_t at = code.find(marker);
  EXPECT_NE(at, std::string::npos) << "marker vanished: " << marker;
  if (at == std::string::npos) return code;
  size_t begin = code.rfind('\n', at);
  begin = (begin == std::string::npos) ? 0 : begin + 1;
  size_t end = code.find('\n', at);
  end = (end == std::string::npos) ? code.size() : end + 1;
  return code.erase(begin, end - begin);
}

TEST(EvcLint, RealTreeLayeringIsAcyclicAndDownwardOnly) {
  // The acceptance bar for the layer DAG: zero upward edges and zero cycles
  // across the real src/ tree.
  Options options;
  options.only_checks = {"layering", "include-cycle"};
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      ScanPaths({std::string(EVC_REPO_ROOT_DIR) + "/src"}, options, &errors);
  EXPECT_TRUE(errors.empty());
  for (const Finding& f : findings) {
    ADD_FAILURE() << "layer violation in real tree: " << FormatFinding(f);
  }
}

TEST(EvcLint, GLevelThreadHostileAllowIsLoadBearing) {
  // logging.cc's g_level carries allow(thread-hostile) because it is an
  // atomic with relaxed ordering. As shipped the file scans clean...
  std::string code = ReadRealSource("common/logging.cc");
  SourceFile as_shipped{"src/common/logging.cc", code};
  EXPECT_TRUE(LinesOf(ScanFiles({as_shipped}), "thread-hostile").empty());
  // ...and stripping the allow line resurfaces exactly that finding, so the
  // suppression is load-bearing, not decorative.
  SourceFile stripped{"src/common/logging.cc",
                      StripLineContaining(code, "allow(thread-hostile)")};
  EXPECT_EQ(LinesOf(ScanFiles({stripped}), "thread-hostile").size(), 1u);
}

TEST(EvcLint, SlabTestPointerTaintAllowIsLoadBearing) {
  // slab_test asserts alignment via an address cast under a reasoned
  // allow(pointer-taint); the finding must come back if the allow goes.
  std::string code = ReadRepoFile("tests/slab_test.cc");
  SourceFile as_shipped{"tests/slab_test.cc", code};
  EXPECT_TRUE(LinesOf(ScanFiles({as_shipped}), "pointer-taint").empty());
  SourceFile stripped{"tests/slab_test.cc",
                      StripLineContaining(code, "allow(pointer-taint)")};
  EXPECT_EQ(LinesOf(ScanFiles({stripped}), "pointer-taint").size(), 1u);
}

TEST(EvcLint, DvvStoreOrphanAllowIsLoadBearing) {
  // Over the whole tree, the only test-only module is storage/dvv_store.h,
  // and its allow(orphan-module) keeps the scan clean...
  std::string root(EVC_REPO_ROOT_DIR);
  std::vector<std::string> errors;
  std::vector<SourceFile> tree;
  for (const std::string& path :
       ListSourceFiles({root + "/src", root + "/bench", root + "/tools",
                        root + "/tests", root + "/examples"},
                       &errors)) {
    if (path.find("lint_fixtures") != std::string::npos) continue;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    tree.push_back({path, ss.str()});
  }
  EXPECT_TRUE(errors.empty());
  Options options;
  options.only_checks = {"orphan-module"};
  for (const Finding& f : ScanFiles(tree, options)) {
    ADD_FAILURE() << "orphan module in real tree: " << FormatFinding(f);
  }
  // ...and stripping the allow line resurfaces exactly that finding.
  const std::string dvv = root + "/src/storage/dvv_store.h";
  for (SourceFile& f : tree) {
    if (f.path == dvv) {
      f.content = StripLineContaining(f.content, "allow(orphan-module)");
    }
  }
  std::vector<Finding> findings = ScanFiles(tree, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, dvv);
}

TEST(EvcLint, TreeWideWerrorSweepIsClean) {
  // The exact invocation CI runs (fixtures excluded — they are deliberately
  // dirty). This pins the whole-tree acceptance criterion as a unit test.
  std::string root(EVC_REPO_ROOT_DIR);
  std::vector<std::string> out;
  int rc = RunCommandLine({"--werror", "--exclude=lint_fixtures",
                           root + "/src", root + "/bench", root + "/tools",
                           root + "/tests", root + "/examples"},
                          &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(rc, 0) << "tree no longer lint-clean; first line: " << out.front();
  EXPECT_EQ(out.back(), "evc_lint: clean");
}

// --- deterministic directory walk ----------------------------------------

TEST(EvcLint, ListSourceFilesWalksInSortedOrder) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "evc_lint_walk";
  fs::remove_all(root);
  fs::create_directories(root / "zeta");
  fs::create_directories(root / "alpha");
  for (const char* rel :
       {"zeta/m.cc", "alpha/b.h", "alpha/a.cc", "alpha/c.cpp", "top.cc",
        "notes.txt"}) {
    std::ofstream(root / rel) << "// stub\n";
  }
  std::vector<std::string> errors;
  std::vector<std::string> files = ListSourceFiles({root.string()}, &errors);
  EXPECT_TRUE(errors.empty());
  // Directories and files interleave in bytewise order; each directory's
  // entries are sorted before recursing; non-source files are skipped.
  std::vector<std::string> expected = {
      (root / "alpha/a.cc").generic_string(),
      (root / "alpha/b.h").generic_string(),
      (root / "alpha/c.cpp").generic_string(),
      (root / "top.cc").generic_string(),
      (root / "zeta/m.cc").generic_string(),
  };
  EXPECT_EQ(files, expected);
  // And the walk is reproducible call-over-call.
  EXPECT_EQ(ListSourceFiles({root.string()}, &errors), expected);
  fs::remove_all(root);
}

// --- suppressions ---------------------------------------------------------

TEST(EvcLint, DiscardedStatusPositive) {
  std::vector<Finding> findings = ScanFixture("discarded_status_bad.cc");
  // Free function, member call, and a dropped Result<T>.
  EXPECT_EQ(LinesOf(findings, "discarded-status"),
            (std::vector<int>{19, 20, 21}));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(EvcLint, DiscardedStatusNegative) {
  EXPECT_TRUE(ScanFixture("discarded_status_ok.cc").empty());
}

TEST(EvcLint, CheckMacroPositive) {
  std::vector<Finding> findings = ScanFixture("check_macro_bad.cc");
  EXPECT_EQ(LinesOf(findings, "check-macro"), (std::vector<int>{4, 7}));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(EvcLint, CheckMacroNegative) {
  EXPECT_TRUE(ScanFixture("check_macro_ok.cc").empty());
}

TEST(EvcLint, MalformedSuppressionsReportAndDoNotSilence) {
  std::vector<Finding> findings = ScanFixture("suppression_bad.cc");
  // Each malformed directive is reported...
  EXPECT_EQ(LinesOf(findings, "bad-suppression"),
            (std::vector<int>{10, 12, 14, 16}));
  // ...and the finding it sat on survives.
  EXPECT_EQ(LinesOf(findings, "unordered-iteration"),
            (std::vector<int>{11, 13, 15, 17}));
}

TEST(EvcLint, WellFormedSuppressionsSilence) {
  // Line-above, same-line, and multi-check allow() forms, all with reasons.
  EXPECT_TRUE(ScanFixture("suppression_ok.cc").empty());
}

TEST(EvcLint, FindingFormatIsFileLineCheck) {
  Finding f{"wall-clock", "src/sim/foo.cc", 12, "no wall clocks"};
  EXPECT_EQ(FormatFinding(f), "src/sim/foo.cc:12: [wall-clock] no wall clocks");
}

// --- command line ---------------------------------------------------------

TEST(EvcLint, ExitCodeCleanScanIsZero) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({FixturePath("wall_clock_ok.cc"), "--werror"},
                           &out),
            0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), "evc_lint: clean");
}

TEST(EvcLint, ExitCodeFindingsWithoutWerrorIsZero) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({FixturePath("wall_clock_bad.cc")}, &out), 0);
  EXPECT_GT(out.size(), 1u);  // findings are still printed
}

TEST(EvcLint, ExitCodeFindingsWithWerrorIsOne) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({FixturePath("wall_clock_bad.cc"), "--werror"},
                           &out),
            1);
}

TEST(EvcLint, ExitCodeBadSuppressionWithWerrorIsOne) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({FixturePath("suppression_bad.cc"), "--werror"},
                           &out),
            1);
}

TEST(EvcLint, ExitCodeUsageErrorsAreTwo) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({"--no-such-flag"}, &out), 2);
  out.clear();
  EXPECT_EQ(RunCommandLine({"--check=no-such-check"}, &out), 2);
  out.clear();
  EXPECT_EQ(RunCommandLine({"no/such/path.cc"}, &out), 2);
  out.clear();
  EXPECT_EQ(RunCommandLine({"--format=bogus"}, &out), 2);
  out.clear();
  EXPECT_EQ(RunCommandLine({"--layers=bogus"}, &out), 2);
}

TEST(EvcLint, CheckFilterRunsOnlySelectedChecks) {
  std::vector<std::string> out;
  // raw_random_bad has only raw-random findings; filtering to wall-clock
  // must make it scan clean.
  EXPECT_EQ(RunCommandLine({"--check=wall-clock",
                            FixturePath("raw_random_bad.cc"), "--werror"},
                           &out),
            0);
}

TEST(EvcLint, ExcludeFlagSkipsMatchingPaths) {
  std::vector<std::string> out;
  // The dirty fixture is the only input; excluding it leaves a clean scan.
  EXPECT_EQ(RunCommandLine({"--werror", "--exclude=wall_clock",
                            FixturePath("wall_clock_bad.cc")},
                           &out),
            0);
}

TEST(EvcLint, ListChecksExitsZero) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({"--list-checks"}, &out), 0);
  EXPECT_EQ(out.size(), 11u);
}

// --- machine-readable outputs ---------------------------------------------

TEST(EvcLint, JsonFormatEmitsParsableSchema) {
  std::vector<std::string> out;
  EXPECT_EQ(
      RunCommandLine({"--format=json", FixturePath("wall_clock_bad.cc")},
                     &out),
      0);
  ASSERT_EQ(out.size(), 1u) << "json mode must emit exactly one document";
  auto doc = obs::Json::Parse(out[0]);
  ASSERT_TRUE(doc.ok()) << "--format=json emitted invalid JSON";
  ASSERT_TRUE(doc.value().is_array());
  const auto& arr = doc.value().AsArray();
  ASSERT_EQ(arr.size(), 5u);
  std::vector<int> lines;
  for (const obs::Json& item : arr) {
    ASSERT_TRUE(item.is_object());
    const obs::Json* path = item.Find("path");
    const obs::Json* line = item.Find("line");
    const obs::Json* check = item.Find("check");
    const obs::Json* message = item.Find("message");
    ASSERT_NE(path, nullptr);
    ASSERT_NE(line, nullptr);
    ASSERT_NE(check, nullptr);
    ASSERT_NE(message, nullptr);
    EXPECT_TRUE(path->is_string());
    EXPECT_TRUE(line->is_int());
    EXPECT_TRUE(check->is_string());
    EXPECT_TRUE(message->is_string());
    EXPECT_EQ(check->AsString(), "wall-clock");
    EXPECT_NE(path->AsString().find("wall_clock_bad.cc"), std::string::npos);
    lines.push_back(static_cast<int>(line->AsInt()));
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{7, 8, 9, 10, 12}));
}

TEST(EvcLint, JsonFormatCleanScanIsEmptyArray) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine({"--format=json", FixturePath("wall_clock_ok.cc")},
                           &out),
            0);
  ASSERT_EQ(out.size(), 1u);
  auto doc = obs::Json::Parse(out[0]);
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc.value().is_array());
  EXPECT_TRUE(doc.value().AsArray().empty());
}

TEST(EvcLint, JsonEscapesSpecialCharacters) {
  std::vector<Finding> findings = {
      {"wall-clock", "we\"ird\\path.cc", 3, "msg with \"quotes\"\nand tab\t"}};
  auto doc = obs::Json::Parse(FindingsToJson(findings));
  ASSERT_TRUE(doc.ok()) << "escaping produced invalid JSON";
  const auto& arr = doc.value().AsArray();
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].Find("path")->AsString(), "we\"ird\\path.cc");
  EXPECT_EQ(arr[0].Find("message")->AsString(),
            "msg with \"quotes\"\nand tab\t");
}

TEST(EvcLint, LayersDotExportsTheObservedGraph) {
  std::vector<std::string> out;
  EXPECT_EQ(RunCommandLine(
                {"--layers=dot", std::string(EVC_REPO_ROOT_DIR) + "/src"},
                &out),
            0);
  ASSERT_GT(out.size(), 2u);
  EXPECT_EQ(out.front(), "digraph evc_layers {");
  EXPECT_EQ(out.back(), "}");
  std::string joined;
  for (const std::string& l : out) joined += l + "\n";
  // A known downward edge from the real tree...
  EXPECT_NE(joined.find("\"sim\" -> \"common\""), std::string::npos);
  // ...and no red upward edges anywhere.
  EXPECT_EQ(joined.find("UPWARD"), std::string::npos);
}

// --- intern-table unordered-iteration audit ------------------------------
//
// KeyInterner's reverse index is an unordered_map whose exemption stance is
// "lookup-only": the check stays armed for the file, and the header must
// scan clean because nothing iterates the index — not because the container
// is whitelisted. Both directions are pinned here against the REAL header.

TEST(EvcLint, InternTableLookupOnlyScansClean) {
  // The shipped interner performs only find()/emplace() on index_; a full
  // unfiltered scan of the real header must produce zero findings.
  SourceFile header{"src/common/interner.h",
                    ReadRealSource("common/interner.h")};
  std::vector<Finding> findings = ScanFiles({header});
  EXPECT_TRUE(findings.empty())
      << "common/interner.h no longer scans clean; if a loop over the "
         "reverse index was added, it breaks the lookup-only contract";
}

TEST(EvcLint, InternTableIterationWouldStillBeFlagged) {
  // The exemption is NOT a blanket one for interner code: appending a loop
  // over index_ to the very same header must trip unordered-iteration. This
  // proves the audit above is load-bearing (the check is armed for the
  // file), not vacuously green.
  std::string code = ReadRealSource("common/interner.h");
  code +=
      "\nnamespace evc {\ninline size_t SumIds(const KeyInterner& in) {\n"
      "  size_t total = 0;\n"
      "  for (const auto& [name, id] : in.debug_index()) total += id;\n"
      "  return total;\n}\n}  // namespace evc\n";
  // Give the scanner an unambiguous declaration for the iterated name in
  // the same translation unit (mirrors how a real accessor would leak it).
  code +=
      "\nnamespace evc {\nstd::unordered_map<std::string_view, KeyId>"
      " debug_index;\n"
      "inline size_t SumAll() {\n  size_t t = 0;\n"
      "  for (const auto& [k, v] : debug_index) t += v;\n  return t;\n}\n"
      "}  // namespace evc\n";
  SourceFile patched{"src/common/interner.h", std::move(code)};
  std::vector<Finding> findings = ScanFiles({patched});
  EXPECT_FALSE(LinesOf(findings, "unordered-iteration").empty())
      << "iterating the intern table went unflagged: the unordered-"
         "iteration check has been disarmed for common/interner.h";
}

// --- [[nodiscard]] compile-fail regression -------------------------------
//
// The scanner's discarded-status check is a belt; the compiler attribute is
// the suspenders. These two tests invoke the project compiler on paired
// fixtures and pin that dropping a Status/Result FAILS to compile while the
// consuming twin compiles cleanly.

int CompileFixture(const std::string& name, bool quiet) {
  std::string cmd = std::string(EVC_CXX_COMPILER) +
                    " -std=c++20 -fsyntax-only -Wall -Werror=unused-result -I" +
                    std::string(EVC_SRC_INCLUDE_DIR) + " " + FixturePath(name);
  if (quiet) cmd += " 2>/dev/null";
  return std::system(cmd.c_str());
}

TEST(NodiscardRegression, DroppedStatusFailsToCompile) {
  EXPECT_NE(CompileFixture("nodiscard_fail.cc", /*quiet=*/true), 0)
      << "a dropped Status/Result compiled: [[nodiscard]] regressed";
}

TEST(NodiscardRegression, ConsumedStatusCompiles) {
  EXPECT_EQ(CompileFixture("nodiscard_ok.cc", /*quiet=*/false), 0);
}

}  // namespace
}  // namespace evc::lint

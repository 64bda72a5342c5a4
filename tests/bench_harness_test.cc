// Tests for bench::Harness, the one record of a figure's output: it prints
// the tables and claims it records, writes BENCH_<name>.json, and turns a
// failed write or a claim that does not hold into a nonzero exit code.
//
// The first two cases are a regression test for a bug the [[nodiscard]]
// sweep surfaced: every bench called harness.Write() and silently ignored a
// failed JSON export, so a bench whose BENCH_<name>.json could not be
// written still exited 0 and CI's schema gate never saw the file.

#include "harness.h"

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace evc::bench {
namespace {

class BenchHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("EVC_BENCH_OUT");
    if (prev != nullptr) prev_out_ = prev;
    setenv("EVC_BENCH_OUT", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (prev_out_.empty()) {
      unsetenv("EVC_BENCH_OUT");
    } else {
      setenv("EVC_BENCH_OUT", prev_out_.c_str(), 1);
    }
  }

  /// Reads and removes BENCH_<name>.json from the output directory.
  std::string TakeOutput(const std::string& name) {
    const std::string path = dir_ + "/BENCH_" + name + ".json";
    std::string text;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    return text;
  }

  const std::string dir_ = ::testing::TempDir();
  std::string prev_out_;
};

TEST_F(BenchHarnessTest, WriteReportsFailureOnUnwritableDirectory) {
  setenv("EVC_BENCH_OUT", "/nonexistent-evc-bench-dir/nested", 1);
  Harness harness("harness_regression");
  harness.Metric("ops", 1.0);
  Status status = harness.Write();
  EXPECT_FALSE(status.ok())
      << "a failed bench export must not look like success";
  harness.Claim("holds", true, "a claim that holds");
  EXPECT_EQ(harness.Finish(), 1)
      << "a failed write fails the bench even when every claim holds";
}

TEST_F(BenchHarnessTest, WriteSucceedsAndProducesTheFile) {
  Harness harness("harness_regression");
  harness.Metric("ops", 1.0);
  ASSERT_TRUE(harness.Write().ok());
  EXPECT_NE(TakeOutput("harness_regression"), "")
      << "expected BENCH_harness_regression.json in " << dir_;
}

TEST_F(BenchHarnessTest, FalseClaimFailsTheBenchAndIsRecorded) {
  Harness harness("harness_claims");
  harness.Claim("holds", true, "a claim that holds");
  harness.Claim("broken", false, "a claim the numbers contradict");
  EXPECT_EQ(harness.Finish(), 1);
  auto doc = obs::Json::Parse(TakeOutput("harness_claims"));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::Json* claims = doc->Find("claims");
  ASSERT_NE(claims, nullptr);
  ASSERT_NE(claims->Find("broken"), nullptr);
  EXPECT_FALSE(claims->Find("broken")->Find("holds")->AsBool());
  EXPECT_EQ(claims->Find("broken")->Find("text")->AsString(),
            "a claim the numbers contradict");
  EXPECT_TRUE(claims->Find("holds")->Find("holds")->AsBool());

  Harness passing("harness_claims");
  passing.Claim("holds", true, "a claim that holds");
  EXPECT_EQ(passing.Finish(), 0);
  TakeOutput("harness_claims");
}

TEST_F(BenchHarnessTest, ClaimsSerializeInADeterministicOrder) {
  Harness forward("order"), backward("order");
  for (const char* name : {"alpha", "mid", "zeta"}) {
    forward.Claim(name, true, name);
  }
  for (const char* name : {"zeta", "mid", "alpha"}) {
    backward.Claim(name, true, name);
  }
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
  EXPECT_EQ(forward.ToText(), backward.ToText());
  const std::string json = forward.ToJson();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"mid\""));
  EXPECT_LT(json.find("\"mid\""), json.find("\"zeta\""));
  // A bench without claims writes no claims section at all.
  EXPECT_EQ(Harness("plain").ToJson().find("claims"), std::string::npos);
}

TEST_F(BenchHarnessTest, PrintedOutputHoldsEveryRowAndClaim) {
  Harness harness("harness_text");
  harness.Table("grid", {"clients", "ratio", "mode"});
  harness.Row("grid", {obs::Json(4), obs::Json(0.5), obs::Json("on")});
  harness.Row("grid", {obs::Json(64), obs::Json(0.875), obs::Json("off")});
  harness.Metric("hit_ratio_c64", 0.875);
  harness.Claim("rises", true, "the ratio rises with clients");
  harness.Claim("falls", false, "the ratio falls with clients");
  const std::string text = harness.ToText();
  for (const char* line :
       {"--- grid ---\n", "clients  ratio  mode\n", "4        0.5    on\n",
        "64       0.875  off\n", "hit_ratio_c64  0.875\n",
        "PASS rises: the ratio rises with clients\n",
        "FAIL falls: the ratio falls with clients\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "in:\n" << text;
  }
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(harness.Finish(), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), text);
  TakeOutput("harness_text");
}

// evc_bench_check fails a file that records a false claim and accepts one
// with no claims section (bench/stack reports have none).
TEST_F(BenchHarnessTest, BenchCheckRejectsAFalseClaim) {
  auto check = [&](const std::string& name) {
    const std::string cmd = std::string(EVC_BENCH_CHECK) + " " + dir_ +
                            "/BENCH_" + name + ".json > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    std::remove((dir_ + "/BENCH_" + name + ".json").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  Harness plain("check_plain");
  plain.Table("t", {"x"});
  plain.Row("t", {obs::Json(1)});
  ASSERT_TRUE(plain.Write().ok());
  EXPECT_EQ(check("check_plain"), 0);

  Harness claimed("check_claimed");
  claimed.Table("t", {"x"});
  claimed.Claim("holds", true, "a claim that holds");
  ASSERT_TRUE(claimed.Write().ok());
  EXPECT_EQ(check("check_claimed"), 0);

  claimed.Claim("broken", false, "a claim the numbers contradict");
  ASSERT_TRUE(claimed.Write().ok());
  EXPECT_EQ(check("check_claimed"), 1);
}

}  // namespace
}  // namespace evc::bench

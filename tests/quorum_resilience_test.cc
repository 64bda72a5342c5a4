// Detector-vs-oracle A/B on the sloppy quorum store, detector honesty under
// gray failures, and determinism of the full resilience stack.

#include <gtest/gtest.h>

#include <string>

#include "verify/fuzz.h"

namespace evc::verify {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// A flaky-link-heavy schedule: no clean partitions, crashes, loss ramps, or
// duplication — only probabilistic per-link drops, which CanCommunicate is
// blind to.
FuzzOptions FlakyLinkOptions(uint64_t seed, bool oracle) {
  FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed);
  options.use_oracle_detector = oracle;
  options.nemesis.allow_partitions = false;
  options.nemesis.allow_crashes = false;
  options.nemesis.allow_loss = false;
  options.nemesis.allow_duplication = false;
  options.nemesis.allow_flaky_links = true;
  options.nemesis.max_flaky_drop_rate = 0.9;
  options.nemesis.mean_fault_interval = kSecond;
  return options;
}

// Pinned A/B: under a flaky-link schedule the oracle mode never diverts a
// write (every link "can communicate"), while the detector mode suspects
// flaky peers from their silence and routes writes to fallbacks with hints.
// Both modes must still satisfy every claimed property on the same seed.
TEST(QuorumResilienceTest, DetectorDivertsMoreThanOracleUnderFlakyLinks) {
  const uint64_t kSeed = 3;
  const FuzzReport detector = RunFuzzSeed(FlakyLinkOptions(kSeed, false));
  const FuzzReport oracle = RunFuzzSeed(FlakyLinkOptions(kSeed, true));

  std::string why;
  EXPECT_TRUE(detector.MeetsClaims(&why)) << "detector: " << why;
  EXPECT_TRUE(oracle.MeetsClaims(&why)) << "oracle: " << why;

  EXPECT_GT(detector.hints_stored, oracle.hints_stored);
  // Oracle mode still records outcomes into the detector (same code path,
  // same event schedule — only the routing verdict differs), so its
  // passively-accrued suspicions can disagree with the oracle too; under a
  // purely gray schedule that disagreement is the point in both modes.
  EXPECT_GT(detector.hints_stored, 0u);
}

// Satellite: detector honesty. Under gray schedules the false-positive
// count (suspicions the oracle disputes) is exported and bounded — the
// detector disagrees with the blind oracle only while gray faults are
// actually active, not promiscuously.
TEST(QuorumResilienceTest, DetectorFalsePositivesExportedAndBounded) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FuzzOptions options = FlakyLinkOptions(seed, /*oracle=*/false);
    options.nemesis.allow_slow_links = true;
    options.nemesis.allow_slow_nodes = true;
    const FuzzReport report = RunFuzzSeed(options);
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why)) << "seed " << seed << ": " << why;
    // One suspicion edge per (observer, peer) pair per gray episode is the
    // honest ceiling; dozens would mean the detector flaps.
    EXPECT_LE(report.detector_false_positives, 50u) << "seed " << seed;
  }
}

// Same-seed runs of the full stack — retries, hedged reads via the client
// layer, gray faults, detector-driven routing — must stay bit-identical.
TEST(QuorumResilienceTest, ResilienceStackIsDeterministic) {
  FuzzOptions options = FlakyLinkOptions(17, /*oracle=*/false);
  options.nemesis.allow_slow_links = true;
  options.nemesis.allow_slow_nodes = true;
  options.nemesis.allow_crashes = true;
  const FuzzReport a = RunFuzzSeed(options);
  const FuzzReport b = RunFuzzSeed(options);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.hints_stored, b.hints_stored);
  EXPECT_EQ(a.detector_false_positives, b.detector_false_positives);
  EXPECT_EQ(a.writes_acked, b.writes_acked);
  EXPECT_EQ(a.reads_ok, b.reads_ok);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
}

// The gray-heavy fuzz profile (slow/flaky links + slow nodes + crashes)
// must meet claims across a seed sweep in oracle mode too. (The default
// detector mode's cells are pinned in golden_digest_test.)
TEST(QuorumResilienceTest, GrayHeavyScheduleMeetsClaimsInOracleMode) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed);
    ASSERT_TRUE(ApplyFuzzProfile("gray-heavy", &options));
    options.use_oracle_detector = true;
    const FuzzReport report = RunFuzzSeed(options);
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why)) << "seed " << seed << ": " << why;
  }
}

}  // namespace
}  // namespace evc::verify

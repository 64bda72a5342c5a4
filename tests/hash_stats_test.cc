#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/stats.h"

namespace evc {
namespace {

TEST(HashTest, Fnv1aIsDeterministicAndSpreads) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("cba"));
  EXPECT_NE(Fnv1a64(""), 0u);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(Fnv1a64("key" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 10000u);  // no collisions in a small set
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
  EXPECT_EQ(Mix64(0), 0u);  // finalizer fixed point: 0 maps to 0
}

TEST(HashTest, HashCombineIsOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

// The sliced implementation must agree bit for bit with the textbook
// byte-at-a-time loop on every length and alignment, including the tails
// shorter than one eight-byte step.
TEST(Crc32cTest, MatchesByteAtATimeReference) {
  auto reference = [](std::string_view data) {
    uint32_t crc = 0xffffffffu;
    for (unsigned char c : data) {
      crc ^= c;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : (crc >> 1);
      }
    }
    return crc ^ 0xffffffffu;
  };
  std::string buffer(256 + 8, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : buffer) {
    x = Mix64(x + 1);
    c = static_cast<char>(x);
  }
  const std::string_view all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const std::string_view data = all.substr(offset, len);
      ASSERT_EQ(Crc32c(data), reference(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(Crc32c(mutated), base) << "flip at " << i;
  }
}

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, ExactForSingleValue) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(50.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 3.0);
  EXPECT_NEAR(h.mean(), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(HistogramTest, PercentilesOrderedAndBounded) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(static_cast<double>(i));
  const double p50 = h.Percentile(0.50);
  const double p95 = h.Percentile(0.95);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 5000, 5000 * 0.05);
  EXPECT_NEAR(p95, 9500, 9500 * 0.05);
  EXPECT_NEAR(p99, 9900, 9900 * 0.05);
  EXPECT_LE(h.Percentile(1.0), 10000.0);
  EXPECT_GE(h.Percentile(0.0), 0.0);
}

TEST(HistogramTest, MergeEqualsCombinedSamples) {
  Histogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    a.Add(i);
    combined.Add(i);
  }
  for (int i = 1000; i < 3000; ++i) {
    b.Add(i);
    combined.Add(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_DOUBLE_EQ(a.Percentile(0.9), combined.Percentile(0.9));
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(1.0);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

// Regression: BucketFor used to trust the truncated log2, which misplaced
// values at (and one ulp below) bucket boundaries by one bucket — e.g.
// 2^(1/16) landed in bucket 1 instead of 2, and nextafter(8.0, 0.0) rounded
// up into 8.0's bucket. That skewed every percentile computed from the
// affected buckets.
TEST(HistogramTest, BucketForExactBoundaries) {
  // Bucket i >= 1 covers [2^((i-1)/16), 2^(i/16)): each boundary value is
  // the *lower* edge of its own bucket.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketFor(0.999), 0);
  EXPECT_EQ(Histogram::BucketFor(1.0), 1);
  EXPECT_EQ(Histogram::BucketFor(std::exp2(1.0 / 16.0)), 2);
  EXPECT_EQ(Histogram::BucketFor(2.0), 17);
  EXPECT_EQ(Histogram::BucketFor(8.0), 49);
  EXPECT_EQ(Histogram::BucketFor(std::nextafter(2.0, 0.0)), 16);
  EXPECT_EQ(Histogram::BucketFor(std::nextafter(8.0, 0.0)), 48);
}

TEST(HistogramTest, BucketForAgreesWithBucketEdgesEverywhere) {
  for (int b = 1; b < Histogram::kBucketCount - 1; ++b) {
    const double lo = Histogram::BucketLower(b);
    const double just_below_hi = std::nextafter(Histogram::BucketUpper(b), 0.0);
    EXPECT_EQ(Histogram::BucketFor(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(Histogram::BucketFor(just_below_hi), b)
        << "upper edge of bucket " << b;
  }
}

// BucketFor as it was before the bucket edges moved into a table: a
// truncated log2 settled against edges computed with exp2 per call.
int ReferenceBucketFor(double value) {
  if (value < 1.0) return 0;
  int b = static_cast<int>(std::log2(value) * 16.0) + 1;
  if (b >= Histogram::kBucketCount) return Histogram::kBucketCount - 1;
  if (value >= std::exp2(static_cast<double>(b) / 16.0)) {
    ++b;
  } else if (value < std::exp2(static_cast<double>(b - 1) / 16.0)) {
    --b;
  }
  if (b < 1) b = 1;
  if (b >= Histogram::kBucketCount) b = Histogram::kBucketCount - 1;
  return b;
}

TEST(HistogramTest, EdgeTableMatchesExp2AndTheLog2Bucketing) {
  EXPECT_EQ(Histogram::BucketLower(0), 0.0);
  for (int b = 0; b < Histogram::kBucketCount; ++b) {
    if (b > 0) {
      EXPECT_EQ(Histogram::BucketLower(b),
                std::exp2(static_cast<double>(b - 1) / 16.0))
          << "bucket " << b;
    }
    EXPECT_EQ(Histogram::BucketUpper(b),
              std::exp2(static_cast<double>(b) / 16.0))
        << "bucket " << b;
  }
  // Every edge 2^(i/16), i = 0..512, and one ulp either side of it.
  for (int i = 0; i <= Histogram::kBucketCount; ++i) {
    const double edge = std::exp2(static_cast<double>(i) / 16.0);
    for (const double v : {std::nextafter(edge, 0.0), edge,
                           std::nextafter(edge, HUGE_VAL)}) {
      EXPECT_EQ(Histogram::BucketFor(v), ReferenceBucketFor(v))
          << "edge " << i << " value " << v;
    }
  }
}

TEST(HistogramTest, PercentileEndpointsReturnMinAndMax) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1000.0);
  // Tail quantiles stay within the recorded range and ordered.
  const double p999 = h.Percentile(0.999);
  EXPECT_GE(p999, h.Percentile(0.99));
  EXPECT_LE(p999, 1000.0);
  EXPECT_GE(p999, 990.0);  // ~2% relative error bound at the tail
}

TEST(HistogramTest, BoundaryHeavySamplesKeepPercentilesInRange) {
  // All mass exactly on bucket boundaries: with the old off-by-one
  // bucketing, p50 of {8, 8, 8, 8} could report from the wrong bucket.
  Histogram h;
  for (int i = 0; i < 4; ++i) h.Add(8.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.999), 8.0);
}

}  // namespace
}  // namespace evc

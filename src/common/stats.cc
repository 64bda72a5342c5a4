#include "common/stats.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "common/status.h"

namespace evc {

namespace {
constexpr int kBucketsPerOctave = 16;

/// edges[i] = 2^(i/16), computed once: bucket i >= 1 covers
/// [edges[i - 1], edges[i]). Every 16th edge is an exact power of two.
const std::array<double, Histogram::kBucketCount + 1>& Edges() {
  static const auto edges = [] {
    std::array<double, Histogram::kBucketCount + 1> e{};
    for (int i = 0; i <= Histogram::kBucketCount; ++i) {
      e[i] = std::exp2(static_cast<double>(i) / 16.0);
      // BucketFor picks the octave from the binary exponent.
      if (i % kBucketsPerOctave == 0) {
        EVC_CHECK(e[i] == std::ldexp(1.0, i / kBucketsPerOctave));
      }
    }
    return e;
  }();
  return edges;
}
}  // namespace

Histogram::Histogram() : buckets_(kBucketCount, 0) {}

// Geometric buckets: bucket i >= 1 covers [2^((i-1)/16), 2^(i/16)) and
// sub-1.0 values land in bucket 0. 512 buckets cover up to ~2^32.
int Histogram::BucketFor(double value) {
  if (!(value >= 1.0)) return 0;  // NaN too
  const auto& edges = Edges();
  // Everything past the last bucket's lower edge clamps into it.
  if (value >= edges[kBucketCount - 1]) return kBucketCount - 1;
  // The binary exponent k names the octave [2^k, 2^(k+1)), which holds
  // buckets 16k+1 .. 16k+16, and the bucket is the first edge above the
  // value. Comparing against the edges themselves puts boundary values
  // exactly where BucketLower/BucketUpper say, with no logarithm to round.
  const int first = kBucketsPerOctave * std::ilogb(value) + 1;
  return static_cast<int>(
      std::upper_bound(edges.begin() + first,
                       edges.begin() + first + kBucketsPerOctave - 1, value) -
      edges.begin());
}

double Histogram::BucketLower(int bucket) {
  if (bucket <= 0) return 0.0;
  return Edges()[bucket - 1];
}

double Histogram::BucketUpper(int bucket) { return Edges()[bucket]; }

void Histogram::Add(double value) {
  if (value < 0) value = 0;
  ++buckets_[static_cast<size_t>(BucketFor(value))];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket.
      const double frac =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets_[i]);
      const double lo = BucketLower(i);
      const double hi = std::min(BucketUpper(i), max_);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, min_, max_);
    }
    seen = next;
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
                static_cast<unsigned long long>(count_), mean(),
                Percentile(0.50), Percentile(0.95), Percentile(0.99), max());
  return buf;
}

}  // namespace evc

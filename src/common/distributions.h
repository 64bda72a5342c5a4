// Key-popularity distributions for workload generation (YCSB-style).

#ifndef EVC_COMMON_DISTRIBUTIONS_H_
#define EVC_COMMON_DISTRIBUTIONS_H_

#include <cstdint>

#include "common/rng.h"

namespace evc {

/// Draws item indices in [0, item_count) according to some popularity law.
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;
  /// Returns the next sampled item index in [0, item_count()).
  virtual uint64_t Next(Rng& rng) = 0;
  /// Number of distinct items this distribution draws from.
  virtual uint64_t item_count() const = 0;
};

/// Zipfian distribution over [0, n) with exponent theta, using the
/// rejection-inversion-free method of Gray et al. ("Quickly generating
/// billion-record synthetic databases", SIGMOD '94) as popularized by YCSB.
/// Item 0 is the most popular.
class ZipfianDistribution : public KeyDistribution {
 public:
  /// `theta` in (0, 1); YCSB default is 0.99. Larger theta = more skew.
  ZipfianDistribution(uint64_t item_count, double theta = 0.99);
  uint64_t Next(Rng& rng) override;
  uint64_t item_count() const override { return item_count_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t item_count_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Zipfian with the popular items scattered across the key space (YCSB's
/// "scrambled zipfian"): preserves the frequency law while decorrelating
/// popularity from key order, which matters for range-partitioned stores.
class ScrambledZipfianDistribution : public KeyDistribution {
 public:
  ScrambledZipfianDistribution(uint64_t item_count, double theta = 0.99);
  uint64_t Next(Rng& rng) override;
  uint64_t item_count() const override { return item_count_; }

 private:
  ZipfianDistribution zipf_;
  uint64_t item_count_;
};

}  // namespace evc

#endif  // EVC_COMMON_DISTRIBUTIONS_H_

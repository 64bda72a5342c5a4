#include "common/distributions.h"

#include <cmath>

#include "common/hash.h"

namespace evc {

ZipfianDistribution::ZipfianDistribution(uint64_t item_count, double theta)
    : item_count_(item_count), theta_(theta) {
  EVC_CHECK(item_count > 0);
  EVC_CHECK(theta > 0.0 && theta < 1.0);
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = Zeta(item_count_, theta_);
  const double zeta2 = Zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(item_count_),
                         1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

double ZipfianDistribution::Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfianDistribution::Next(Rng& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(item_count_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= item_count_ ? item_count_ - 1 : rank;
}

ScrambledZipfianDistribution::ScrambledZipfianDistribution(uint64_t item_count,
                                                           double theta)
    : zipf_(item_count, theta), item_count_(item_count) {}

uint64_t ScrambledZipfianDistribution::Next(Rng& rng) {
  const uint64_t rank = zipf_.Next(rng);
  return Mix64(rank) % item_count_;
}

}  // namespace evc

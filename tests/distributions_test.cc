#include "common/distributions.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace evc {
namespace {

TEST(ZipfianDistributionTest, ItemZeroIsMostPopular) {
  ZipfianDistribution dist(1000, 0.99);
  Rng rng(2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[dist.Next(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[100]);
}

TEST(ZipfianDistributionTest, StaysInRange) {
  ZipfianDistribution dist(17, 0.8);
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    EXPECT_LT(dist.Next(rng), 17u);
  }
}

TEST(ZipfianDistributionTest, HigherThetaMoreSkew) {
  Rng rng_a(4), rng_b(4);
  ZipfianDistribution mild(1000, 0.5), heavy(1000, 0.99);
  int mild_hits = 0, heavy_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (mild.Next(rng_a) == 0) ++mild_hits;
    if (heavy.Next(rng_b) == 0) ++heavy_hits;
  }
  EXPECT_GT(heavy_hits, mild_hits * 2);
}

TEST(ZipfianDistributionTest, SingleItemAlwaysZero) {
  ZipfianDistribution dist(1, 0.99);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.Next(rng), 0u);
}

TEST(ScrambledZipfianTest, PopularItemNotNecessarilyFirst) {
  ScrambledZipfianDistribution dist(1000, 0.99);
  Rng rng(6);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[dist.Next(rng)];
  // The hottest item should have the zipfian head frequency but be scattered.
  int max_idx = 0;
  for (int i = 0; i < 1000; ++i) {
    if (counts[i] > counts[max_idx]) max_idx = i;
  }
  EXPECT_GT(counts[max_idx], 200000 / 50);  // head item is very hot
}

TEST(ScrambledZipfianTest, StaysInRange) {
  ScrambledZipfianDistribution dist(37, 0.9);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(dist.Next(rng), 37u);
}

// Property sweep: every distribution respects its domain for many sizes.
class DistributionDomainTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributionDomainTest, AllDistributionsStayInDomain) {
  const uint64_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<std::unique_ptr<KeyDistribution>> dists;
  dists.push_back(std::make_unique<ZipfianDistribution>(n, 0.99));
  dists.push_back(std::make_unique<ScrambledZipfianDistribution>(n, 0.7));
  for (auto& d : dists) {
    EXPECT_EQ(d->item_count(), n);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(d->Next(rng), n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributionDomainTest,
                         ::testing::Values(1, 2, 3, 10, 100, 4096, 100000));

}  // namespace
}  // namespace evc

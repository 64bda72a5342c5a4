#include "workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace evc::workload {
namespace {

TEST(WorkloadTest, MixProportionsRoughlyRespected) {
  WorkloadConfig config = WorkloadConfig::YcsbB();  // 95/5
  WorkloadGenerator gen(config, 1);
  std::map<OpType, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next().type];
  EXPECT_NEAR(static_cast<double>(counts[OpType::kRead]) / n, 0.95, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[OpType::kUpdate]) / n, 0.05, 0.01);
}

TEST(WorkloadTest, YcsbAIsHalfAndHalf) {
  WorkloadGenerator gen(WorkloadConfig::YcsbA(), 2);
  std::map<OpType, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[gen.Next().type];
  EXPECT_NEAR(counts[OpType::kRead], counts[OpType::kUpdate], 600);
}

TEST(WorkloadTest, KeysStayInLiveRange) {
  WorkloadConfig config;
  config.record_count = 50;
  WorkloadGenerator gen(config, 6);
  for (int i = 0; i < 5000; ++i) {
    const Op op = gen.Next();
    // Keys are "user<i>" with i < record_count.
    const uint64_t index = std::stoull(op.key.substr(4));
    EXPECT_LT(index, config.record_count);
  }
}

TEST(WorkloadTest, ValuesHaveConfiguredSizeAndEmbedKey) {
  WorkloadConfig config = WorkloadConfig::YcsbA();
  config.value_size = 64;
  WorkloadGenerator gen(config, 7);
  for (int i = 0; i < 100; ++i) {
    const Op op = gen.Next();
    if (op.type == OpType::kUpdate) {
      EXPECT_EQ(op.value.size(), 64u);
      EXPECT_EQ(op.value.rfind(op.key, 0), 0u) << "value embeds its key";
    }
  }
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  WorkloadGenerator a(WorkloadConfig::YcsbA(), 9);
  WorkloadGenerator b(WorkloadConfig::YcsbA(), 9);
  for (int i = 0; i < 1000; ++i) {
    const Op op_a = a.Next();
    const Op op_b = b.Next();
    EXPECT_EQ(op_a.type, op_b.type);
    EXPECT_EQ(op_a.key, op_b.key);
    EXPECT_EQ(op_a.value, op_b.value);
    // Interned ids are part of the determinism contract too: same-seed runs
    // must intern keys in the same order (the ids reach hot paths and
    // caches keyed by them).
    EXPECT_EQ(op_a.key_id, op_b.key_id);
  }
}

TEST(WorkloadTest, KeyIdsRoundTripAndAreInjective) {
  WorkloadGenerator gen(WorkloadConfig::YcsbA(), 4);
  std::map<KeyId, std::string> seen;  // id -> key
  for (int i = 0; i < 2000; ++i) {
    const Op op = gen.Next();
    ASSERT_NE(op.key_id, kInvalidKeyId);
    // Round-trip: the id resolves back to exactly the op's key string.
    EXPECT_EQ(gen.KeyNameOf(op.key_id), op.key);
    // Injective per run: an id never maps to two different keys, and a
    // repeated key always gets its original id.
    auto [it, inserted] = seen.emplace(op.key_id, op.key);
    if (!inserted) {
      EXPECT_EQ(it->second, op.key);
    }
  }
  EXPECT_EQ(gen.interned_keys(), seen.size());
}

TEST(WorkloadTest, ZipfianSkewsTowardFewKeys) {
  WorkloadConfig config = WorkloadConfig::YcsbA();
  config.record_count = 10000;
  WorkloadGenerator gen(config, 10);
  std::map<std::string, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next().key];
  // Top-10 keys should absorb a large share of traffic.
  std::vector<int> freq;
  for (const auto& [key, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  int top10 = 0;
  for (int i = 0; i < 10 && i < static_cast<int>(freq.size()); ++i) {
    top10 += freq[i];
  }
  EXPECT_GT(static_cast<double>(top10) / n, 0.2);
}

class WorkloadPresetTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadPresetTest, ProportionsSumToOne) {
  WorkloadConfig config;
  switch (GetParam()) {
    case 0: config = WorkloadConfig::YcsbA(); break;
    case 1: config = WorkloadConfig::YcsbB(); break;
  }
  EXPECT_NEAR(config.read_proportion + config.update_proportion, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Presets, WorkloadPresetTest, ::testing::Range(0, 2));

// A mix must name every op it draws: with 0.5 read and 0.3 update the
// other 20 % would have no op type.
TEST(WorkloadDeathTest, ProportionsThatDoNotSumToOneAreRejected) {
  WorkloadConfig config;
  config.read_proportion = 0.5;
  config.update_proportion = 0.3;
  EXPECT_DEATH(WorkloadGenerator(config, 1), "EVC_CHECK failed");
}

}  // namespace
}  // namespace evc::workload

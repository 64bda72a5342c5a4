#include "crdt/registers.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace evc::crdt {
namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

TEST(LwwRegisterTest, EmptyHasNoValue) {
  LwwRegister reg;
  EXPECT_FALSE(reg.has_value());
}

TEST(LwwRegisterTest, SetAndRead) {
  LwwRegister reg;
  EXPECT_TRUE(reg.Set("x", Ts(1)));
  EXPECT_TRUE(reg.has_value());
  EXPECT_EQ(reg.value(), "x");
}

TEST(LwwRegisterTest, StaleSetIgnored) {
  LwwRegister reg;
  reg.Set("new", Ts(10));
  EXPECT_FALSE(reg.Set("old", Ts(5)));
  EXPECT_EQ(reg.value(), "new");
}

TEST(LwwRegisterTest, EqualTimestampIgnored) {
  LwwRegister reg;
  reg.Set("first", Ts(5, 1));
  EXPECT_FALSE(reg.Set("dup", Ts(5, 1)));
  EXPECT_EQ(reg.value(), "first");
}

TEST(LwwRegisterTest, TieBrokenByNodeDeterministically) {
  LwwRegister a, b;
  a.Set("from-1", Ts(5, 1));
  b.Set("from-2", Ts(5, 2));
  LwwRegister m1 = a;
  m1.Merge(b);
  LwwRegister m2 = b;
  m2.Merge(a);
  EXPECT_EQ(m1.value(), "from-2");  // higher node id wins the tie
  EXPECT_EQ(m1, m2);
}

TEST(LwwRegisterTest, MergeConvergesRegardlessOfOrder) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    LwwRegister regs[3];
    for (int w = 0; w < 10; ++w) {
      const int r = static_cast<int>(rng.NextBounded(3));
      regs[r].Set("v" + std::to_string(trial * 10 + w),
                  Ts(rng.NextBounded(20), static_cast<uint32_t>(r)));
    }
    for (int round = 0; round < 2; ++round) {
      for (auto& a : regs) {
        for (const auto& b : regs) a.Merge(b);
      }
    }
    EXPECT_EQ(regs[0], regs[1]);
    EXPECT_EQ(regs[1], regs[2]);
  }
}

TEST(LwwRegisterTest, ConcurrentWriteIsSilentlyLost) {
  // The anomaly Fig. 5 quantifies: two concurrent Sets, only one survives.
  LwwRegister a, b;
  a.Set("milk", Ts(100, 1));
  b.Set("eggs", Ts(101, 2));
  a.Merge(b);
  EXPECT_EQ(a.value(), "eggs");  // "milk" is gone with no trace
}

}  // namespace
}  // namespace evc::crdt

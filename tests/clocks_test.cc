#include <gtest/gtest.h>

#include "clock/lamport.h"

namespace evc {
namespace {

TEST(LamportClockTest, TickIsMonotonic) {
  LamportClock clock(1);
  LamportTimestamp prev = clock.Tick();
  for (int i = 0; i < 100; ++i) {
    const LamportTimestamp next = clock.Tick();
    EXPECT_LT(prev, next);
    prev = next;
  }
}

TEST(LamportClockTest, ObserveAdvancesPastRemote) {
  LamportClock clock(1);
  clock.Tick();
  const LamportTimestamp remote{100, 2};
  const LamportTimestamp after = clock.Observe(remote);
  EXPECT_GT(after.counter, remote.counter);
  EXPECT_EQ(after.node, 1u);
}

TEST(LamportClockTest, ObserveOlderRemoteStillTicks) {
  LamportClock clock(1);
  for (int i = 0; i < 10; ++i) clock.Tick();
  const LamportTimestamp before = clock.Peek();
  const LamportTimestamp after = clock.Observe(LamportTimestamp{1, 2});
  EXPECT_GT(after.counter, before.counter);
}

TEST(LamportClockTest, TotalOrderBreaksTiesByNode) {
  const LamportTimestamp a{5, 1};
  const LamportTimestamp b{5, 2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(LamportClockTest, MessageExchangePreservesHappensBefore) {
  LamportClock alice(1), bob(2);
  const LamportTimestamp send = alice.Tick();
  const LamportTimestamp recv = bob.Observe(send);
  EXPECT_LT(send, recv);  // receive happens-after send in the total order
}

}  // namespace
}  // namespace evc

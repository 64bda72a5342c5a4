#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace evc::sim {
namespace {

std::unique_ptr<Simulator> NewSim(uint64_t seed = 1) {
  return std::make_unique<Simulator>(seed);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  auto sim = NewSim();
  std::vector<int> order;
  sim->ScheduleAt(30, [&] { order.push_back(3); });
  sim->ScheduleAt(10, [&] { order.push_back(1); });
  sim->ScheduleAt(20, [&] { order.push_back(2); });
  sim->Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim->Now(), 30);
  EXPECT_EQ(sim->events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  auto sim = NewSim();
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim->ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim->Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  auto sim = NewSim();
  Time fired_at = -1;
  sim->ScheduleAt(100, [&] {
    sim->ScheduleAfter(50, [&] { fired_at = sim->Now(); });
  });
  sim->Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, ScheduleReturnsNonzeroIds) {
  auto sim = NewSim();
  // Callers use id == 0 as a "no pending event" sentinel; the scheduler
  // must never hand it out.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(sim->ScheduleAt(i, [] {}), 0u);
  }
}

TEST(SimulatorTest, CancelPreventsExecution) {
  auto sim = NewSim();
  bool ran = false;
  const EventId id = sim->ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(sim->Cancel(id));
  EXPECT_FALSE(sim->Cancel(id));  // double-cancel reports false
  sim->Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelUnknownIdIsFalse) {
  auto sim = NewSim();
  EXPECT_FALSE(sim->Cancel(999));
  EXPECT_FALSE(sim->Cancel(0));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  auto sim = NewSim();
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim->ScheduleAfter(10, tick);
  };
  sim->ScheduleAt(0, tick);
  sim->RunUntil(100);
  EXPECT_EQ(count, 11);  // t=0,10,...,100 inclusive
  EXPECT_EQ(sim->Now(), 100);
  sim->RunUntil(200);
  EXPECT_EQ(count, 21);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  auto sim = NewSim();
  sim->RunUntil(500);
  EXPECT_EQ(sim->Now(), 500);
}

TEST(SimulatorTest, RunUntilEndsAtDeadlineWhenQueueDrainsEarly) {
  // Contract: the clock always lands exactly on the deadline, even when the
  // last scheduled event fires well before it. Callers rely on this to
  // compose fixed-length measurement windows (RunFor = RunUntil(Now+d)).
  auto sim = NewSim();
  bool ran = false;
  sim->ScheduleAt(10, [&] { ran = true; });
  sim->RunUntil(1000);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim->Now(), 1000);
  // A later RunFor window starts from the deadline, not the last event.
  sim->RunFor(50);
  EXPECT_EQ(sim->Now(), 1050);
}

TEST(SimulatorTest, ScheduleAfterRunUntilSkippedAheadStillFires) {
  // RunUntil can advance the clock far past the last executed event. A
  // subsequent schedule close to Now() must fire on the next run: the queue
  // orders it by its time alone, not by where earlier pops left off.
  auto sim = NewSim();
  sim->ScheduleAt(10, [] {});
  sim->RunUntil(1'000'000);
  bool ran = false;
  sim->ScheduleAfter(5, [&] { ran = true; });
  sim->RunFor(10);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim->Now(), 1'000'010);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  auto sim = NewSim();
  EXPECT_FALSE(sim->Step());
  sim->ScheduleAt(1, [] {});
  EXPECT_TRUE(sim->Step());
  EXPECT_FALSE(sim->Step());
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  auto sim = NewSim();
  int depth = 0;
  std::function<void(int)> recurse = [&](int d) {
    depth = d;
    if (d < 5) sim->ScheduleAfter(1, [&, d] { recurse(d + 1); });
  };
  sim->ScheduleAt(0, [&] { recurse(1); });
  sim->Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim->Now(), 4);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    auto sim = NewSim(seed);
    std::vector<uint64_t> trace;
    for (int i = 0; i < 50; ++i) {
      const Time t = static_cast<Time>(sim->rng().NextBounded(1000));
      sim->ScheduleAt(t, [&trace, &sim] {
        trace.push_back(static_cast<uint64_t>(sim->Now()));
      });
    }
    sim->Run();
    return trace;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(SimulatorTest, PendingEventsCountsAccurately) {
  auto sim = NewSim();
  EXPECT_EQ(sim->pending_events(), 0u);
  const EventId a = sim->ScheduleAt(10, [] {});
  const EventId b = sim->ScheduleAt(20, [] {});
  sim->ScheduleAt(30, [] {});
  EXPECT_EQ(sim->pending_events(), 3u);
  // Cancelling removes from the pending count immediately, even though the
  // entry is still physically in the queue.
  EXPECT_TRUE(sim->Cancel(b));
  EXPECT_EQ(sim->pending_events(), 2u);
  EXPECT_TRUE(sim->Step());  // runs a
  EXPECT_EQ(sim->pending_events(), 1u);
  // Cancelling an already-executed event must not create a phantom
  // tombstone that would make the count underflow.
  EXPECT_FALSE(sim->Cancel(a));
  EXPECT_EQ(sim->pending_events(), 1u);
  sim->Run();
  EXPECT_EQ(sim->pending_events(), 0u);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  auto sim = NewSim();
  const EventId id = sim->ScheduleAt(5, [] {});
  sim->Run();
  // Regression: this used to return true and leave the id in the cancelled
  // set forever, so pending_events() (size_t subtraction) underflowed to a
  // huge value once the queue drained.
  EXPECT_FALSE(sim->Cancel(id));
  EXPECT_EQ(sim->pending_events(), 0u);
  sim->ScheduleAt(10, [] {});
  EXPECT_EQ(sim->pending_events(), 1u);
}

TEST(SimulatorTest, PendingEventsExactUnderCancelHeavyLoad) {
  auto sim = NewSim();
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim->ScheduleAt(i, [] {}));
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim->Cancel(ids[i]));
  EXPECT_EQ(sim->pending_events(), 50u);
  for (int i = 0; i < 25; ++i) EXPECT_TRUE(sim->Step());
  EXPECT_EQ(sim->pending_events(), 25u);
  // Double-cancel and cancel-after-run are both no-ops.
  for (int i = 0; i < 100; ++i) sim->Cancel(ids[i]);
  EXPECT_EQ(sim->pending_events(), 0u);
  sim->Run();
  EXPECT_EQ(sim->pending_events(), 0u);
}

TEST(SimulatorTest, CancelInsideEarlierEventAtSameTime) {
  auto sim = NewSim();
  bool second_ran = false;
  EventId second = 0;
  sim->ScheduleAt(10, [&] { sim->Cancel(second); });
  second = sim->ScheduleAt(10, [&] { second_ran = true; });
  sim->Run();
  EXPECT_FALSE(second_ran);
}

TEST(SimulatorTest, MoveOnlyCapturesAreSupported) {
  // Payload handles are move-only; closures carrying them must schedule.
  auto sim = NewSim();
  auto owned = std::make_unique<std::string>("cargo");
  std::string got;
  sim->ScheduleAt(5, [&got, boxed = std::move(owned)] { got = *boxed; });
  sim->Run();
  EXPECT_EQ(got, "cargo");
}

// --- closure-lifetime regressions -----------------------------------------
// The seed scheduler moved events out of priority_queue::top() through a
// const_cast and ran the closure while bookkeeping around it was mutating.
// These pin the safe-lifetime contract: while an event executes, its closure
// is detached from every scheduler structure, so the event may destroy its
// own captured state, reallocate the queue under itself, or tear down the
// object that transitively owns it.

TEST(SimulatorTest, EventMayDestroyItsOwnCapturedState) {
  auto sim = NewSim();
  auto state = std::make_shared<std::vector<int>>(1000, 7);
  std::weak_ptr<std::vector<int>> alive = state;
  bool checked = false;
  sim->ScheduleAt(10, [&checked, s = std::move(state)]() mutable {
    EXPECT_EQ((*s)[999], 7);
    s.reset();  // drop the last reference mid-execution
    checked = true;
  });
  sim->Run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(alive.expired());
}

TEST(SimulatorTest, EventMayReallocateTheQueueWhileRunning) {
  // Schedule enough events from inside a running event to force the backing
  // containers (event heap, slot table, slab chunks) to grow. The
  // running closure's captures must stay intact across that growth.
  auto sim = NewSim();
  int fired = 0;
  const std::string sentinel(512, 'x');
  sim->ScheduleAt(1, [&, sentinel] {
    for (int i = 0; i < 5000; ++i) {
      sim->ScheduleAfter(1 + i % 97, [&fired] { ++fired; });
    }
    EXPECT_EQ(sentinel, std::string(512, 'x'));
  });
  sim->Run();
  EXPECT_EQ(fired, 5000);
}

TEST(SimulatorTest, DestructorCancellingOwnEventDuringRunIsSafe) {
  // A closure holding the last reference to an object whose destructor
  // cancels "its" event id — the very id now executing. The cancel must
  // report false (the event already left the queue) and not corrupt
  // pending-count bookkeeping.
  auto sim = NewSim();
  struct TimerOwner {
    Simulator* sim = nullptr;
    EventId id = 0;
    ~TimerOwner() {
      if (id != 0) {
        EXPECT_FALSE(sim->Cancel(id));
      }
    }
  };
  auto owner = std::make_shared<TimerOwner>();
  owner->sim = sim.get();
  bool ran = false;
  owner->id = sim->ScheduleAt(10, [&ran, owner]() mutable {
    ran = true;
    owner.reset();  // destroys TimerOwner; its dtor cancels this very event
  });
  owner.reset();  // the closure now holds the only reference
  sim->Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim->pending_events(), 0u);
  sim->ScheduleAt(20, [] {});
  EXPECT_EQ(sim->pending_events(), 1u);
}

}  // namespace
}  // namespace evc::sim

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/slab.h"

namespace evc::sim {
namespace {

using Time = EventQueue::Time;

// Two time scales the cases aim at: 64 us and 16.384 ms, the bucket width
// and the window of the calendar wheel this queue replaced.
constexpr Time kStep = 64;
constexpr Time kSpan = kStep * 256;

/// Reference model: a sorted vector of (when, seq) keys with exact-cancel
/// semantics. Everything the event queue promises, in twenty lines.
class NaiveQueue {
 public:
  uint64_t Push(Time when, int payload) {
    const uint64_t id = next_id_++;
    entries_.push_back({when, next_seq_++, id, payload});
    return id;
  }
  bool Cancel(uint64_t id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->id == id) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }
  size_t pending() const { return entries_.size(); }
  /// Pops the least (when, seq) entry.
  std::pair<Time, int> PopMin() {
    auto best = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->when < best->when ||
          (it->when == best->when && it->seq < best->seq)) {
        best = it;
      }
    }
    std::pair<Time, int> out{best->when, best->payload};
    entries_.erase(best);
    return out;
  }

 private:
  struct Entry {
    Time when;
    uint64_t seq;
    uint64_t id;
    int payload;
  };
  std::vector<Entry> entries_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
};

/// Pairs the queue under test with the model and cross-checks every op.
class Harness {
 public:
  void Push(Time when, int payload) {
    const uint64_t real = q_.Push(when, Task(&slab_, [this, payload] {
                                    popped_payload_ = payload;
                                  }));
    ASSERT_NE(real, 0u);
    const uint64_t model = model_.Push(when, payload);
    id_map_.push_back({real, model});
  }

  void CancelNth(size_t n) {
    ASSERT_LT(n, id_map_.size());
    const bool real = q_.Cancel(id_map_[n].first);
    const bool model = model_.Cancel(id_map_[n].second);
    EXPECT_EQ(real, model) << "cancel #" << n;
  }

  /// Pops from both queues, cross-checks, and returns the popped time so
  /// callers can keep their simulated clock >= the queue's high-water mark
  /// (the Simulator's `when >= Now()` precondition, which the queue
  /// EVC_CHECKs on push).
  Time PopAndCheck() {
    EXPECT_GT(model_.pending(), 0u);
    const auto [want_when, want_payload] = model_.PopMin();
    Time got_when = -1;
    Time peeked = -1;
    EXPECT_TRUE(q_.PeekWhen(&peeked));
    Task fn = q_.PopMin(&got_when);
    popped_payload_ = -1;
    fn.Run();
    EXPECT_EQ(got_when, want_when);
    EXPECT_EQ(peeked, want_when);
    EXPECT_EQ(popped_payload_, want_payload);
    return got_when;
  }

  void CheckPending() { EXPECT_EQ(q_.pending(), model_.pending()); }
  void DrainAndCheck() {
    while (model_.pending() > 0) PopAndCheck();
    EXPECT_TRUE(q_.empty());
  }

  EventQueue& queue() { return q_; }
  size_t scheduled() const { return id_map_.size(); }

 private:
  Slab slab_;
  EventQueue q_;
  NaiveQueue model_;
  std::vector<std::pair<uint64_t, uint64_t>> id_map_;  // (real, model)
  int popped_payload_ = -1;
};

TEST(EventQueueTest, PopsInKeyOrder) {
  Harness h;
  h.Push(30, 3);
  h.Push(10, 1);
  h.Push(20, 2);
  h.DrainAndCheck();
}

TEST(EventQueueTest, SameTimeEventsAreFifo) {
  Harness h;
  for (int i = 0; i < 100; ++i) h.Push(5, i);
  h.DrainAndCheck();
}

TEST(EventQueueTest, InterleavedPushPopKeepsFifoWithinTime) {
  Harness h;
  for (int i = 0; i < 10; ++i) h.Push(100, i);
  for (int i = 0; i < 5; ++i) h.PopAndCheck();
  // Same-time pushes issued after some pops still order after the earlier
  // same-time survivors (seq is global, assigned at push).
  for (int i = 10; i < 20; ++i) h.Push(100, i);
  h.DrainAndCheck();
}

TEST(EventQueueTest, CancelIsExactAndPendingStaysTrue) {
  Harness h;
  for (int i = 0; i < 50; ++i) h.Push(i * 7, i);
  for (size_t n = 0; n < 50; n += 2) h.CancelNth(n);
  h.CheckPending();
  // Double-cancel is a no-op in both.
  for (size_t n = 0; n < 50; n += 2) h.CancelNth(n);
  h.CheckPending();
  h.DrainAndCheck();
}

TEST(EventQueueTest, CancelAfterPopReturnsFalse) {
  Slab slab;
  EventQueue q;
  const uint64_t id = q.Push(10, Task(&slab, [] {}));
  q.PopMin().Run();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, ForeignAndZeroIdsCancelFalse) {
  Slab slab;
  EventQueue q;
  q.Push(10, Task(&slab, [] {}));
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(0xdeadbeefull << 32));
  EXPECT_FALSE(q.Cancel((1ull << 32) | 999));  // slot out of range
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, StaleGenerationIdCancelFalse) {
  Slab slab;
  EventQueue q;
  const uint64_t first = q.Push(10, Task(&slab, [] {}));
  q.PopMin().Run();
  // The slot is reused with a bumped generation; the old id must not cancel
  // the new event.
  const uint64_t second = q.Push(20, Task(&slab, [] {}));
  EXPECT_EQ(first & 0xffffffffu, second & 0xffffffffu);  // same slot
  EXPECT_NE(first, second);                              // different gen
  EXPECT_FALSE(q.Cancel(first));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.Cancel(second));
}

TEST(EventQueueTest, AdjacentAndRepeatedTimesPopInOrder) {
  Harness h;
  // Times one apart around several multiples of kStep and kSpan.
  const Time times[] = {0,          1,          kStep - 1, kStep,
                        kStep + 1,  2 * kStep,  kSpan - 1, kSpan,
                        kSpan + 1,  2 * kSpan,  3 * kSpan - 1};
  int payload = 0;
  for (Time t : times) h.Push(t, payload++);
  for (Time t : times) h.Push(t, payload++);  // duplicates: FIFO at each time
  h.CheckPending();
  h.DrainAndCheck();
}

TEST(EventQueueTest, PushAtTheLastPoppedTimeSurfacesNext) {
  // An event pushed at exactly the last popped time is due now: it must be
  // the next one out, ahead of anything later.
  Slab slab;
  EventQueue q;
  int got = 0;
  q.Push(kSpan - kStep, Task(&slab, [] {}));
  q.Push(kSpan, Task(&slab, [&] { got = 2; }));
  q.PopMin().Run();
  q.Push(kSpan - kStep, Task(&slab, [&] { got = 1; }));
  Time when = -1;
  ASSERT_TRUE(q.PeekWhen(&when));
  EXPECT_EQ(when, kSpan - kStep);
  q.PopMin().Run();
  EXPECT_EQ(got, 1);
}

TEST(EventQueueTest, FarApartDenseBurstsPopInOrder) {
  // Eight bursts of 3000 events, 100 to a microsecond, each followed by one
  // event 100 spans later.
  Slab slab;
  EventQueue q;
  int ran = 0;
  Time t = 0;
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 3000; ++i) {
      q.Push(t + i / 100, Task(&slab, [&ran] { ++ran; }));
    }
    t += 100 * kSpan;
    q.Push(t, Task(&slab, [&ran] { ++ran; }));
  }
  Time prev = -1;
  Time when = 0;
  int popped = 0;
  while (!q.empty()) {
    q.PopMin(&when).Run();
    EXPECT_GE(when, prev);
    prev = when;
    ++popped;
  }
  EXPECT_EQ(popped, ran);
  EXPECT_EQ(popped, 8 * 3000 + 8);
}

TEST(EventQueueTest, CancelHeavyFarTimersKeepOrderExact) {
  // RPC-style load: far-future timers that are almost always cancelled
  // before firing. Cancelling must not perturb the order or exactness of
  // what survives.
  Harness h;
  Rng rng(99);
  std::vector<size_t> armed;
  for (int round = 0; round < 50; ++round) {
    for (int t = 0; t < 20; ++t) {
      const Time when = 500000 + round * 1000 + t;  // ~0.5 s out
      h.Push(when, round * 20 + t);
      armed.push_back(h.scheduled() - 1);
    }
    // Cancel ~90% of what's armed, like timeouts disarmed by replies.
    while (armed.size() > 2) {
      const size_t pick = rng.NextBounded(armed.size());
      h.CancelNth(armed[pick]);
      armed.erase(armed.begin() + static_cast<ptrdiff_t>(pick));
    }
    h.CheckPending();
  }
  h.DrainAndCheck();
}

TEST(EventQueueTest, MidHeapCancelSiftsTheMovedKeyUpOrDown) {
  // Every push below carries a key no smaller than its parent's, so it stays
  // where it lands: at the end of the heap array, whose index i has its
  // children at 4i+1 ... 4i+4. Cancelling moves the array's last key into
  // the hole. The first cancel leaves it below a larger key, so it must sift
  // up; the second leaves it above smaller keys, so it must sift down.
  Harness h;
  const Time layout[] = {0,                   // [0]
                         100, 10,  10,  10,   // [1..4]
                         200, 201, 202, 203,  // [5..8], children of [1]
                         11,  12,  13,  14};  // [9..12], children of [2]
  int payload = 0;
  for (Time t : layout) h.Push(t, payload++);
  h.CancelNth(5);  // 14 moves to [5], under 100
  // Later keys fill the array's end, so no pop moves 14 by taking the last
  // key: only the sift-up above put it ahead of 100.
  for (Time t : {300, 301, 302, 303}) h.Push(t, payload++);
  h.CancelNth(2);  // 303 moves to [2], over 11, 12 and 13
  h.CheckPending();
  h.DrainAndCheck();
}

TEST(EventQueueTest, CancelFreesClosureAtOnce) {
  // A cancelled timer's closure, and what it captured, is freed by Cancel
  // itself, not when the timer's time comes.
  Slab slab;
  EventQueue q;
  auto captured = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = captured;
  const uint64_t timer =
      q.Push(250000, Task(&slab, [c = std::move(captured)] { (void)c; }));
  q.Push(10, Task(&slab, [] {}));
  EXPECT_EQ(slab.live(), 2u);
  EXPECT_TRUE(q.Cancel(timer));
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_TRUE(alive.expired());
  q.PopMin().Run();
  EXPECT_EQ(slab.live(), 0u);
}

TEST(EventQueueTest, CancelledClosureMayReenterTheQueue) {
  // Cancel runs the closure's destructors, and one may push and cancel
  // events. Its 1000 pushes regrow the queue's tables under that Cancel.
  Slab slab;
  EventQueue q;
  int ran = 0;
  struct Reenter {
    EventQueue* q = nullptr;
    Slab* slab = nullptr;
    int* ran = nullptr;
    uint64_t victim = 0;
    ~Reenter() {
      for (int i = 0; i < 1000; ++i) {
        q->Push(1000 + i, Task(slab, [r = ran] { ++*r; }));
      }
      EXPECT_TRUE(q->Cancel(victim));
    }
  };
  auto owner = std::make_shared<Reenter>();
  owner->q = &q;
  owner->slab = &slab;
  owner->ran = &ran;
  owner->victim = q.Push(50, Task(&slab, [&ran] { ran = -1; }));
  const uint64_t timer =
      q.Push(100, Task(&slab, [o = std::move(owner)] { (void)o; }));
  EXPECT_TRUE(q.Cancel(timer));
  EXPECT_EQ(q.pending(), 1000u);
  Time prev = -1;
  Time when = 0;
  while (!q.empty()) {
    q.PopMin(&when).Run();
    EXPECT_GT(when, prev);
    prev = when;
  }
  EXPECT_EQ(ran, 1000);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(EventQueueTest, FuzzAgainstModelAcrossRegimes) {
  // Mixed push/pop/cancel traffic in three time regimes: clustered, spread
  // far apart, and in between. The model is the spec; every pop is
  // cross-checked.
  struct Regime {
    uint64_t seed;
    Time spread;
  };
  const Regime regimes[] = {{1, 40}, {2, 100 * kSpan}, {3, 3 * kSpan}};
  for (const Regime& r : regimes) {
    Harness h;
    Rng rng(r.seed);
    Time now = 0;
    std::vector<size_t> live;
    for (int op = 0; op < 4000; ++op) {
      const uint64_t dice = rng.NextBounded(10);
      if (dice < 5 || h.queue().empty()) {
        const Time when = now + static_cast<Time>(rng.NextBounded(
                                    static_cast<uint64_t>(r.spread) + 1));
        h.Push(when, op);
        live.push_back(h.scheduled() - 1);
      } else if (dice < 8) {
        // Popping advances virtual time: later pushes must not be earlier
        // than the last executed event (the Simulator invariant).
        now = std::max(now, h.PopAndCheck());
      } else if (!live.empty()) {
        const size_t pick = rng.NextBounded(live.size());
        h.CancelNth(live[pick]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      }
      h.CheckPending();
    }
    h.DrainAndCheck();
  }
}

TEST(EventQueueTest, PopReturnsRunnableTaskExactlyOnce) {
  Slab slab;
  EventQueue q;
  int runs = 0;
  q.Push(1, Task(&slab, [&runs] { ++runs; }));
  Task t = q.PopMin();
  EXPECT_TRUE(t.valid());
  t.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(t.valid());  // consumed
}

}  // namespace
}  // namespace evc::sim

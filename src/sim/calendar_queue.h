// Calendar-queue event scheduler: a bucketed timing wheel with a sorted
// overflow heap.
//
// The simulator's former std::priority_queue scheduler paid O(log n)
// comparisons and ~56-byte element moves per push/pop, plus one hash-set
// insert/erase per event for pending-count bookkeeping and tombstone sets
// for cancellation. The calendar queue replaces all of that:
//
//   * Near-future events (within the wheel's current window) go straight
//     into per-time-slice buckets; in the common case a push is an O(1)
//     append (new events carry the largest (when, seq) key in their bucket)
//     and a pop is an O(1) read at the bucket cursor.
//   * Far-future events wait in a binary min-heap keyed on (when, seq) and
//     are redistributed bucket-ward one window at a time ("refill"); each
//     event passes through the heap at most once.
//   * Cancellation is O(1) and exact: event ids encode a (slot, generation)
//     pair into a flat slot table, so Cancel() finds the event without
//     hashing, never double-counts, and pending() is a plain counter.
//   * Extraction is mutable by construction (PopMin returns the event by
//     value), so the old const_cast move-out of priority_queue::top() —
//     UB-adjacent and flagged in review — is gone.
//
// Adaptivity: the bucket width is re-derived at every refill from the
// observed event rate of the previous window, and the bucket count doubles
// when a window would pack too many events per bucket. Both decisions are
// pure functions of the event history, so two same-seed runs resize at the
// same instants (calendar_queue_test pins resize behavior; the golden
// export digests in golden_digest_test pin full protocol workloads).
//
// Ordering contract: strict (when, seq) order with seq assigned at push,
// i.e. FIFO among same-time events.

#ifndef EVC_SIM_CALENDAR_QUEUE_H_
#define EVC_SIM_CALENDAR_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/slab.h"
#include "common/status.h"
#include "sim/task.h"

namespace evc::sim {

class CalendarQueue {
 public:
  using Time = int64_t;
  using EventId = uint64_t;

  struct Stats {
    uint64_t refills = 0;        ///< wheel windows rebuilt from overflow
    uint64_t width_changes = 0;  ///< bucket width adaptations
    uint64_t grows = 0;          ///< bucket-count doublings
    uint64_t compactions = 0;    ///< overflow tombstone sweeps
  };

  /// `slab` outlives the queue; event closures are freed back into it.
  explicit CalendarQueue(Slab* slab);

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;
  ~CalendarQueue();

  /// Enqueues `fn` at `when`. `when` must be >= the last popped time.
  /// Returns a nonzero id usable with Cancel().
  EventId Push(Time when, Task fn);

  /// Cancels a pending event. True iff `id` was pending (not yet popped,
  /// not already cancelled). Stale and foreign ids return false.
  bool Cancel(EventId id);

  /// Live (pending, uncancelled) events.
  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  /// Time of the earliest live event. False when empty. May prune
  /// cancelled-event carcasses as a side effect.
  bool PeekWhen(Time* when);

  /// Extracts the earliest live event's closure; stores its time in `*when`
  /// if non-null. Pre: !empty().
  Task PopMin(Time* when = nullptr);

  const Stats& stats() const { return stats_; }

 private:
  struct Rec {
    Time when = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
    Task fn;
  };
  struct Slot {
    uint32_t gen = 1;
    bool live = false;        ///< allocated to an un-surfaced event
    bool cancelled = false;   ///< Cancel() hit it; reap when it surfaces
    bool in_overflow = false; ///< record currently lives in the overflow heap
  };
  struct Bucket {
    std::vector<Rec> recs;  ///< sorted ascending by (when, seq) from `head`
    size_t head = 0;
  };

  static bool KeyLess(const Rec& a, const Rec& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  Time wheel_end() const {
    return wheel_start_ +
           static_cast<Time>(buckets_.size()) * width_;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  void PushRec(Rec rec);
  void BucketInsert(Bucket* bucket, Rec rec);
  /// Positions cursor_ at the next live record, refilling the wheel from
  /// the overflow heap as needed. False when no live events remain.
  bool FindNext();
  /// Moves the next window of overflow events into (possibly re-sized,
  /// re-widthed) buckets.
  void Refill();
  /// Sweeps cancelled records out of the overflow heap once they outnumber
  /// the live ones. RPC-style timers (armed far in the future, almost
  /// always cancelled before firing) would otherwise sit in the heap as
  /// tombstones until their window refills — hundreds of sim-milliseconds —
  /// inflating every heap operation. O(n) per sweep, amortized O(1) per
  /// cancel; deterministic (pure function of the operation sequence).
  void MaybeCompactOverflow();

  Slab* slab_;
  std::vector<Bucket> buckets_;
  size_t cursor_ = 0;      ///< first bucket that may hold live records
  Time wheel_start_ = 0;   ///< time of bucket 0's left edge
  Time width_;             ///< time covered by one bucket
  std::vector<Rec> overflow_;  ///< min-heap on (when, seq)
  size_t overflow_cancelled_ = 0;  ///< tombstones currently in overflow_
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  ///< LIFO reuse (deterministic)
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
  /// Set by FindNext(): the global minimum sits in the overflow heap (an
  /// event scheduled before the current window), not at the bucket cursor.
  bool next_from_overflow_ = false;
  /// Events the last Refill() distributed (drives bucket-count growth).
  size_t moved_last_refill_ = 0;
  // Pop history for width adaptation: events popped and time advanced since
  // the last refill.
  uint64_t popped_this_window_ = 0;
  Time last_pop_when_ = 0;
  Stats stats_;
};

}  // namespace evc::sim

#endif  // EVC_SIM_CALENDAR_QUEUE_H_

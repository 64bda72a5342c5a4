// Event scheduler: an indexed 4-ary min-heap on (when, seq).
//
// Heap entries are 24-byte {when, seq, slot} keys, so a sift moves no
// closure. The closure lives in a generation-tagged slot table that also
// records where its key sits in the heap, which gives:
//
//   * O(log n) push and pop over the pending events alone: nothing dead
//     stays in the heap, so RPC-style timers (armed far out, almost always
//     cancelled before firing) cost nothing once cancelled.
//   * Exact O(log n) cancellation: an EventId is (generation << 32) | slot,
//     so Cancel() finds the event without hashing, removes its key from the
//     heap and frees its closure at once. A stale or foreign id matches no
//     live slot and cancels nothing.
//
// Ordering contract: strict (when, seq) order with seq assigned at push,
// i.e. FIFO among same-time events. The key is a total order, so the pop
// order does not depend on the heap's shape.

#ifndef EVC_SIM_EVENT_QUEUE_H_
#define EVC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/task.h"

namespace evc::sim {

class EventQueue {
 public:
  using Time = int64_t;
  using EventId = uint64_t;

  /// Enqueues `fn` at `when`. `when` must be >= the last popped time.
  /// Returns a nonzero id usable with Cancel().
  EventId Push(Time when, Task fn);

  /// Cancels a pending event and destroys its closure before returning.
  /// True iff `id` was pending (not yet popped, not already cancelled).
  /// Stale and foreign ids return false.
  bool Cancel(EventId id);

  /// Pending (scheduled, not yet popped, not cancelled) events.
  size_t pending() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event. False when empty.
  bool PeekWhen(Time* when) const {
    if (heap_.empty()) return false;
    *when = heap_.front().when;
    return true;
  }

  /// Extracts the earliest pending event's closure; stores its time in
  /// `*when` if non-null. Pre: !empty().
  Task PopMin(Time* when = nullptr);

 private:
  struct Entry {
    Time when = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };
  struct Slot {
    uint32_t gen = 1;
    uint32_t pos = kUnused;  ///< index of this event's entry in heap_
    Task fn;
  };
  static constexpr uint32_t kUnused = UINT32_MAX;

  static bool Less(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Writes `e` at heap index `pos` and records the index in its slot.
  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Removes the entry at heap index `pos` and restores the heap order.
  void RemoveAt(size_t pos);
  /// Returns `slot` to the free list, bumps its generation so the ids
  /// handed out for it stop matching, and hands back its closure.
  Task FreeSlot(uint32_t slot);

  std::vector<Entry> heap_;  ///< 4-ary min-heap on (when, seq)
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  ///< LIFO reuse (deterministic)
  uint64_t next_seq_ = 0;
  Time last_pop_when_ = 0;
};

}  // namespace evc::sim

#endif  // EVC_SIM_EVENT_QUEUE_H_

#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace evc::sim {

namespace {

// Children of heap index i sit at kArity * i + 1 ... kArity * i + kArity. A
// wider node makes the heap shallower, and its four 24-byte keys span about
// one and a half cache lines.
constexpr size_t kArity = 4;

}  // namespace

EventQueue::EventId EventQueue::Push(Time when, Task fn) {
  EVC_CHECK(when >= last_pop_when_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.push_back({when, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.pos == kUnused || s.gen != gen) return false;
  RemoveAt(s.pos);
  // The closure dies only once the queue is consistent again: a destructor
  // of one of its captures may push or cancel events.
  FreeSlot(slot).Reset();
  return true;
}

Task EventQueue::PopMin(Time* when) {
  EVC_CHECK(!heap_.empty());
  const Entry top = heap_.front();
  RemoveAt(0);
  last_pop_when_ = top.when;
  if (when != nullptr) *when = top.when;
  return FreeSlot(top.slot);
}

void EventQueue::SiftUp(size_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Less(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventQueue::SiftDown(size_t pos) {
  const Entry e = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = kArity * pos + 1;
    if (first >= n) break;
    size_t least = first;
    const size_t end = std::min(first + kArity, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (Less(heap_[c], heap_[least])) least = c;
    }
    if (!Less(heap_[least], e)) break;
    Place(pos, heap_[least]);
    pos = least;
  }
  Place(pos, e);
}

void EventQueue::RemoveAt(size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // `last` was the entry removed
  // The array's last key fills the hole. It may belong above `pos` or
  // below it; the sift records where it ends up.
  heap_[pos] = last;
  if (pos > 0 && Less(last, heap_[(pos - 1) / kArity])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

Task EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.pos = kUnused;
  // gen 0 is skipped on wraparound: it would make (gen << 32 | slot) collide
  // with small plain integers (and id 0 is the callers' "no event" sentinel).
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
  return std::move(s.fn);
}

}  // namespace evc::sim

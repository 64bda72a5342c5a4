// Grow-only counter (state-based CRDT) with delta support.
//
// State: per-replica partial counts; join = pointwise max. Increments
// commute, so replicas that exchange state in any order converge — the
// canonical example of strong eventual consistency in the tutorial.

#ifndef EVC_CRDT_GCOUNTER_H_
#define EVC_CRDT_GCOUNTER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace evc::crdt {

/// State-based grow-only counter.
class GCounter {
 public:
  GCounter() = default;

  /// Adds `amount` (>= 0 semantics: grow-only) on behalf of `replica`.
  /// Returns a delta CRDT containing just the changed entry; shipping deltas
  /// instead of full state is the delta-CRDT optimization measured in Fig 6.
  GCounter Increment(uint32_t replica, uint64_t amount = 1);

  /// Total across replicas.
  uint64_t Value() const;

  /// Per-replica share (0 if absent).
  uint64_t ShareOf(uint32_t replica) const;

  /// Join: pointwise maximum. Idempotent, commutative, associative.
  void Merge(const GCounter& other);

  /// True if `this` state already includes everything in `other`.
  bool Includes(const GCounter& other) const;

  bool operator==(const GCounter& other) const {
    return shares_ == other.shares_;
  }

  size_t entry_count() const { return shares_.size(); }
  /// Serialized size proxy: bytes to encode the state.
  size_t StateBytes() const;

  std::string ToString() const;

 private:
  std::map<uint32_t, uint64_t> shares_;
};

}  // namespace evc::crdt

#endif  // EVC_CRDT_GCOUNTER_H_

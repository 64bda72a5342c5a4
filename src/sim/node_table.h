// Per-node state in a dense vector indexed by node id.
//
// Network::AddNode hands node ids out densely from 0, so the per-peer state
// that hot paths touch on every message (the RPC layer's piggybacked peer
// load; the resilience layer's detector, breaker and per-destination
// tables) lives in a vector rather than a hash map. The table grows on
// write; a node never written, including one above every id written so
// far, reads as the table's default value, exactly as an absent map key
// did. Lookups never iterate, so no iteration order is involved.

#ifndef EVC_SIM_NODE_TABLE_H_
#define EVC_SIM_NODE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace evc::sim {

template <typename T>
class NodeTable {
 public:
  NodeTable() = default;
  /// Every node reads as `fallback` until it is written.
  explicit NodeTable(T fallback) : fallback_(std::move(fallback)) {}

  /// The entry for `node`, grown into the table (as a copy of the default)
  /// if it is not there yet. Growing moves the entries, so a reference
  /// from an earlier call must not be held across a write to a new id.
  T& operator[](uint32_t node) {
    if (node >= rows_.size()) {
      // Ids are dense; one this far out is an unresolved sentinel (e.g.
      // UINT32_MAX), not a reason to allocate gigabytes.
      EVC_CHECK(node < kMaxNodes);
      rows_.resize(size_t{node} + 1, fallback_);
    }
    return rows_[node];
  }

  /// The entry for `node`, or the default for a node never written.
  const T& Get(uint32_t node) const {
    return node < rows_.size() ? rows_[node] : fallback_;
  }

  /// Returns `node` to the default.
  void Reset(uint32_t node) {
    if (node < rows_.size()) rows_[node] = fallback_;
  }

 private:
  static constexpr uint32_t kMaxNodes = 1u << 24;

  T fallback_{};
  std::vector<T> rows_;
};

}  // namespace evc::sim

#endif  // EVC_SIM_NODE_TABLE_H_

// Consistent hashing with virtual nodes (Dynamo's partitioning scheme).
//
// The naive "hash(key) mod n" placement the simple preference list uses has
// two classic problems the tutorial's partitioning discussion calls out:
// adding a server remaps nearly every key, and per-server load varies
// widely. A consistent-hash ring fixes remapping (only ~1/n of keys move)
// and virtual nodes fix balance (each server appears at `vnodes` positions,
// smoothing the arc lengths). Ablation 3 measures both effects.

#ifndef EVC_REPLICATION_HASH_RING_H_
#define EVC_REPLICATION_HASH_RING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/latency.h"

namespace evc::repl {

/// Consistent-hash ring mapping keys to an ordered preference list of
/// distinct servers.
class HashRing {
 public:
  /// `vnodes` ring positions per server (1 = plain consistent hashing).
  /// `point_mask` narrows the point space (tests use it to force vnode
  /// collisions; production keeps the full 64-bit space).
  explicit HashRing(int vnodes = 64, uint64_t point_mask = ~0ull);

  /// Adds a server's vnodes to the ring. A vnode point that collides with
  /// one already owned by another server is re-probed to a free point, so
  /// no server ever silently takes over another's arc.
  void AddServer(sim::NodeId node);

  size_t server_count() const { return servers_.size(); }
  int vnodes() const { return vnodes_; }
  /// Ring points currently placed; always server_count() * vnodes().
  size_t point_count() const { return ring_.size(); }

  /// The first `n` *distinct* servers clockwise from hash(key).
  std::vector<sim::NodeId> PreferenceList(const std::string& key,
                                          size_t n) const;

  /// The primary home of `key` (first entry of the preference list).
  sim::NodeId PrimaryFor(const std::string& key) const;

 private:
  static uint64_t PointFor(sim::NodeId node, int index);

  int vnodes_;
  uint64_t point_mask_;
  // (position, server), sorted by position; positions are distinct. A
  // preference list walks it in order, which a flat array keeps cheap.
  std::vector<std::pair<uint64_t, sim::NodeId>> ring_;
  std::vector<sim::NodeId> servers_;
};

}  // namespace evc::repl

#endif  // EVC_REPLICATION_HASH_RING_H_

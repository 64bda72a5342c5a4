#include "replication/hash_ring.h"

#include <algorithm>

#include "common/hash.h"
#include "common/status.h"
#include "sim/node_table.h"

namespace evc::repl {

namespace {

// Orders ring points against a position (std::lower_bound).
bool PointBefore(const std::pair<uint64_t, sim::NodeId>& point,
                 uint64_t position) {
  return point.first < position;
}

}  // namespace

HashRing::HashRing(int vnodes, uint64_t point_mask)
    : vnodes_(vnodes), point_mask_(point_mask) {
  EVC_CHECK(vnodes >= 1);
}

uint64_t HashRing::PointFor(sim::NodeId node, int index) {
  return Mix64((static_cast<uint64_t>(node) << 20) ^
               static_cast<uint64_t>(index) ^ 0x5ca1ab1eULL);
}

void HashRing::AddServer(sim::NodeId node) {
  EVC_CHECK(std::find(servers_.begin(), servers_.end(), node) ==
            servers_.end());
  // The masked point space must fit every vnode of every server.
  EVC_CHECK(point_mask_ >=
            (servers_.size() + 1) * static_cast<uint64_t>(vnodes_));
  servers_.push_back(node);
  for (int i = 0; i < vnodes_; ++i) {
    uint64_t p = PointFor(node, i) & point_mask_;
    auto at = std::lower_bound(ring_.begin(), ring_.end(), p, PointBefore);
    // Re-probe through the mixer on collision: overwriting would hand the
    // other server's arc to `node` and drop one of its points.
    for (uint64_t probe = 1; at != ring_.end() && at->first == p; ++probe) {
      p = Mix64(PointFor(node, i) + probe) & point_mask_;
      at = std::lower_bound(ring_.begin(), ring_.end(), p, PointBefore);
    }
    ring_.insert(at, {p, node});
  }
}

std::vector<sim::NodeId> HashRing::PreferenceList(const std::string& key,
                                                  size_t n) const {
  EVC_CHECK(!ring_.empty());
  n = std::min(n, servers_.size());
  std::vector<sim::NodeId> out;
  out.reserve(n);
  // Members already listed, by id: a walk over every member would otherwise
  // rescan its own output at each of the ring's points.
  sim::NodeTable<uint8_t> listed;
  // FNV-1a alone is unusable as a ring position for short keys: an n-byte
  // input only reaches ~2^(40+lg n) of the 2^64 space (each byte contributes
  // one multiply by the 2^40-sized FNV prime), so every short key lands on
  // the same arc and placement degenerates to a single preference list.
  // Finalize with the bijective mixer to spread positions uniformly.
  auto it =
      std::lower_bound(ring_.begin(), ring_.end(), Mix64(Fnv1a64(key)),
                       PointBefore);
  for (size_t steps = 0; out.size() < n && steps < 2 * ring_.size();
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (listed.Get(it->second) == 0) {
      listed[it->second] = 1;
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

sim::NodeId HashRing::PrimaryFor(const std::string& key) const {
  return PreferenceList(key, 1)[0];
}

}  // namespace evc::repl

// Dotted-version-vector key-value store.
//
// VersionedStore tags writes with plain server-id version vectors, which
// exhibits the classic *false overwrite*: two clients writing blindly
// through the SAME coordinator produce {r:1} then {r:2}, so the second
// "dominates" the first even though the clients were concurrent (see
// VersionedStoreTest.BlindWritesSameCoordinatorFalselyOverwrite). Dotted
// version vectors (Preguiça, Baquero et al. 2012) repair this: each stored
// sibling is tagged with one *dot* (a single new event) plus the causal
// context the client actually read; concurrency is decided against the
// context, not the coordinator's counter, so concurrent same-coordinator
// writes correctly coexist as siblings while causal overwrites still prune.
//
// This is the storage model Riak adopted; the tests contrast it with the
// plain-VV store on the exact anomaly.

// evc-lint: allow(orphan-module) reason=tests-only until ROADMAP's dotted-version-vectors item folds DvvStore into VersionedStore
#ifndef EVC_STORAGE_DVV_STORE_H_
#define EVC_STORAGE_DVV_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clock/version_vector.h"

namespace evc {

/// One stored sibling: value + the dot that created it. The per-key causal
/// context is kept once for the whole sibling set (the "dotted causal
/// container" layout), not per sibling.
struct DvvSibling {
  std::string value;
  Dot dot;
  bool tombstone = false;
};

/// The client-visible state of a key: its siblings and the causal context
/// to pass back on the next write.
struct DvvReadResult {
  std::vector<DvvSibling> siblings;  ///< live (non-tombstone) siblings
  VersionVector context;             ///< pass into Put to supersede reads
};

/// Per-replica DVV store (single coordinator id per instance).
class DvvStore {
 public:
  explicit DvvStore(uint32_t replica_id) : replica_id_(replica_id) {}

  uint32_t replica_id() const { return replica_id_; }

  /// Writes `value` with the client's read `context`. Siblings covered by
  /// the context are pruned; siblings the client had NOT seen survive —
  /// even if this same coordinator wrote them. Returns the new dot.
  Dot Put(const std::string& key, std::string value,
          const VersionVector& context);

  /// Tombstone write with the same semantics.
  Dot Delete(const std::string& key, const VersionVector& context);

  /// Live siblings + context.
  DvvReadResult Get(const std::string& key) const;

  /// All siblings including tombstones plus the container context
  /// (replication payload).
  struct Container {
    std::vector<DvvSibling> siblings;
    VersionVector context;
  };
  Container GetContainer(const std::string& key) const;

  /// Merges a remote container (anti-entropy / replica sync). Returns true
  /// if local state changed.
  bool MergeRemote(const std::string& key, const Container& remote);

  size_t key_count() const { return map_.size(); }
  size_t sibling_count(const std::string& key) const;

  /// True if both stores hold identical containers for `key`.
  static bool Identical(const DvvStore& a, const DvvStore& b,
                        const std::string& key);

 private:
  struct Entry {
    std::vector<DvvSibling> siblings;
    VersionVector context;  // summarizes every event this container saw
  };

  /// True if `dot` is covered by `context` (the event was seen).
  static bool Covered(const Dot& dot, const VersionVector& context) {
    return context.Get(dot.replica) >= dot.counter;
  }

  uint32_t replica_id_;
  uint64_t counter_ = 0;
  std::map<std::string, Entry> map_;
};

}  // namespace evc

#endif  // EVC_STORAGE_DVV_STORE_H_

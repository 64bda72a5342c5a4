// Per-replica versioned key-value storage.
//
// Each key holds a set of sibling versions tagged with version vectors, the
// structure beneath Dynamo-style multi-value stores. A configurable conflict
// policy decides what happens when concurrent versions meet:
//   * kSiblings — keep all concurrent versions (clients merge); no update is
//     ever silently lost.
//   * kLastWriterWins — keep only the version with the largest (Lamport)
//     timestamp; concurrent losers are discarded, which is exactly the
//     lost-update anomaly the tutorial warns about (quantified in Fig. 5).
// Deletes are tombstone versions so that removal survives anti-entropy.
//
// Keys are filed by Merkle leaf (MerkleTree::LeafOf at the store's depth),
// each leaf a key-sorted vector, and every key keeps its KeyDigest beside
// its siblings. Anti-entropy can then visit only the divergent leaves, and
// a merge that changes nothing costs one lookup and no digest work.
//
// A key's sibling set is an immutable object (SiblingSet) that stores may
// share: every write builds a replacement set and none edits one in place.
// Anti-entropy ships a store's set objects rather than copies. A shipped set
// that strictly dominates every local version is adopted as it is, object
// and digest, and so is one a merge's result equals, so replicas that agree
// on a key hold one set between them (DESIGN.md §2.2).

#ifndef EVC_STORAGE_VERSIONED_STORE_H_
#define EVC_STORAGE_VERSIONED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clock/lamport.h"
#include "clock/version_vector.h"
#include "common/status.h"
#include "storage/merkle.h"

namespace evc {

/// One stored version of a key.
struct Version {
  std::string value;
  VersionVector vv;          ///< causal tag of this version
  LamportTimestamp lww_ts;   ///< total-order timestamp for LWW policy
  bool tombstone = false;    ///< true if this version is a delete marker

  /// Deterministic digest of this version (for Merkle sync).
  uint64_t Digest() const;

  /// Binary serialization (WAL records, snapshot transfer).
  void EncodeTo(std::string* dst) const;
  static Result<Version> DecodeFrom(class Decoder* dec);

  std::string ToString() const;

  bool operator==(const Version&) const = default;
};

/// A key's sibling set, immutable once stored so that stores can share it.
using SiblingSet = std::shared_ptr<const std::vector<Version>>;

/// One key as anti-entropy ships it: the sending store's set object (shared,
/// never copied), its KeyDigest and the Merkle leaf the key is filed under
/// (stores that exchange records share one depth, so the receiver files it
/// there without hashing the key).
struct SharedSiblings {
  std::string key;
  SiblingSet siblings;
  uint64_t digest = 0;
  size_t leaf = 0;
};

/// What a write did to one key, for the owner's Merkle tree
/// (MerkleTree::UpdateKey): the key's Fnv1a64 hash and its KeyDigest before
/// and after the write (0 for an absent key). The default, all zeros, is a
/// no-op update.
struct KeyDigestChange {
  uint64_t key_hash = 0;
  uint64_t old_digest = 0;
  uint64_t new_digest = 0;
};

/// Inserts `v` into a sibling set, maintaining the invariant that no version
/// in the set causally dominates another: dominated existing siblings are
/// removed, and the insert is dropped when an existing sibling dominates or
/// equals it. Returns true if the set changed. (Shared by VersionedStore and
/// by protocol coordinators that merge read replies.)
bool InsertIntoSiblingSet(std::vector<Version>* siblings, const Version& v);

/// Merges several replicas' sibling sets for a key into the minimal
/// conflict-free set (union minus dominated versions).
std::vector<Version> MergeSiblingSets(
    const std::vector<std::vector<Version>>& sets);

/// Conflict policy applied when merging concurrent versions of one key.
enum class ConflictPolicy {
  kSiblings,        ///< retain all concurrent versions
  kLastWriterWins,  ///< retain only the max-timestamp version
};

struct VersionedStoreOptions {
  ConflictPolicy conflict_policy = ConflictPolicy::kSiblings;
};

/// In-memory versioned KV map for a single replica. Not thread-safe (the
/// simulator is single-threaded).
class VersionedStore {
 public:
  /// Keys are filed into 2^leaf_depth Merkle leaves; ReplicaStorage passes
  /// its tree's depth.
  explicit VersionedStore(uint32_t replica_id,
                          VersionedStoreOptions options = {},
                          int leaf_depth = MerkleTree::kDefaultDepth);

  uint32_t replica_id() const { return replica_id_; }
  const VersionedStoreOptions& options() const { return options_; }

  /// Writes a new version. `context` is the causal context the writer read
  /// (its version vector); the new version's vv is context ⊔ {replica: next}.
  /// Siblings causally dominated by the new version are discarded. Returns
  /// the stored version. If `change` is set and the key changed, it receives
  /// the key's hash and digests; so do Delete's and MergeRemote's (which
  /// returns true exactly then). Otherwise it is left as it was.
  Version Put(const std::string& key, std::string value,
              const VersionVector& context, LamportTimestamp ts,
              KeyDigestChange* change = nullptr);

  /// Writes a tombstone with the same rules as Put.
  Version Delete(const std::string& key, const VersionVector& context,
                 LamportTimestamp ts, KeyDigestChange* change = nullptr);

  /// Returns the live (non-tombstone) sibling versions of `key`.
  /// Empty if unknown or fully deleted.
  std::vector<Version> Get(const std::string& key) const;

  /// Returns all sibling versions including tombstones (for replication).
  std::vector<Version> GetRaw(const std::string& key) const;

  /// The merged causal context of all siblings of `key` (pass back into Put
  /// to supersede what was read).
  VersionVector ContextFor(const std::string& key) const;

  /// Merges a remote sibling set into the local one (anti-entropy / replica
  /// sync / read repair). Keeps the union minus dominated versions, then
  /// applies the conflict policy. Returns true if local state changed.
  bool MergeRemote(const std::string& key,
                   const std::vector<Version>& remote_versions,
                   KeyDigestChange* change = nullptr);

  /// MergeRemote for a set another store shipped (SiblingsInLeaves), filed
  /// under its `leaf`. If the key already holds that object it returns at
  /// once. If the shipped set strictly dominates every local version and
  /// the conflict policy cannot rewrite it (kSiblings, or one version), the
  /// key adopts the shipped object and digest without merging; otherwise it
  /// merges, and adopts them when the result equals the shipped set.
  bool MergeRemote(const SharedSiblings& shipped,
                   KeyDigestChange* change = nullptr);

  /// Number of keys with at least one version (including tombstone-only).
  size_t key_count() const { return key_count_; }

  /// Total sibling versions across all keys (state-size metric).
  size_t version_count() const;

  /// Digest of the full sibling set of `key` (order-independent; 0 if the
  /// key is absent). Cached: recomputed only when the sibling set changes.
  uint64_t KeyDigest(const std::string& key) const;

  using KeyVisitor = std::function<void(const std::string& key,
                                        const std::vector<Version>&)>;

  /// Iterates all keys in key order (gathers every leaf and sorts, so it
  /// costs O(n log n); crash, restart, checkpoint and migration use it).
  /// `fn` must not modify the store.
  void ForEachKey(const KeyVisitor& fn) const;

  /// Exactly the keys whose Merkle leaf is in `leaves` (indices below
  /// 2^leaf_depth, in any order, repeats allowed), leaf by leaf in ascending
  /// leaf order and in key order within a leaf, each with its shared set
  /// object. No key is sorted: cost follows the keys returned, not the
  /// store size.
  std::vector<SharedSiblings> SiblingsInLeaves(
      const std::vector<size_t>& leaves) const;

  /// Raises the internal write counter to at least `floor`. Called during
  /// crash recovery so post-recovery writes never reuse a version-vector
  /// slot that was already handed out before the crash.
  void RestoreCounterFloor(uint64_t floor) {
    if (floor > write_counter_) write_counter_ = floor;
  }

 private:
  struct Entry {
    std::string key;
    SiblingSet siblings;  // null only while Merge fills a new entry
    uint64_t digest = 0;  // KeyDigest of `siblings`, kept in step with them
  };
  using Leaf = std::vector<Entry>;  // sorted by key

  const Entry* Find(const std::string& key) const;
  /// The key's entry in `leaf`, inserted empty (digest 0) when absent.
  Entry& FindOrInsert(const std::string& key, size_t leaf);
  /// Both MergeRemotes for a non-empty set (`shipped` is null for the
  /// vector one); Put and Delete merge their one new version through it
  /// too. Replaces the key's set, never edits it. `key_hash` is the key's
  /// Fnv1a64 when the caller has it (it found `leaf` that way); a shipped
  /// record names its leaf instead, and its hash is computed only if the
  /// set changes.
  bool Merge(const std::string& key, size_t leaf,
             std::optional<uint64_t> key_hash,
             std::span<const Version> versions,
             const SharedSiblings* shipped, KeyDigestChange* change);
  void ApplyConflictPolicy(std::vector<Version>* siblings);

  uint32_t replica_id_;
  VersionedStoreOptions options_;
  int leaf_depth_;
  uint64_t write_counter_ = 0;  // per-replica monotonic counter for vv
  // 2^leaf_depth_ leaves, allocated on the first insert so that an unused
  // store costs nothing. A sorted vector keeps lookups logarithmic in the
  // leaf size (shallow trees put hundreds of keys in a leaf) and costs no
  // per-key node.
  std::vector<Leaf> leaves_;
  size_t key_count_ = 0;
};

}  // namespace evc

#endif  // EVC_STORAGE_VERSIONED_STORE_H_

// Merkle tree over a hashed key space, for efficient anti-entropy.
//
// Replicas locate the buckets in which they differ, then exchange only
// those keys, so the keys shipped track the divergence, not the database
// size (the claim Fig. 3 quantifies). How many digests that takes depends
// on the exchange. DiffLeaves descends from the root into differing
// subtrees only, so it compares O(depth) digests per divergent bucket (29
// for one bucket at depth 14); AntiEntropy::SyncPair counts that descent,
// and Fig. 3(b) and Ablation 2(a) report it. A gossip round does not
// descend: its SyncRequest carries every leaf digest plus the root,
// 2^depth + 1 digests whatever the divergence. Keys are placed into
// 2^depth leaf buckets by key hash; bucket digests are order-independent
// XOR accumulators so point updates are O(depth).

#ifndef EVC_STORAGE_MERKLE_H_
#define EVC_STORAGE_MERKLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace evc {

/// Incrementally maintained Merkle tree with XOR-accumulator leaves.
class MerkleTree {
 public:
  /// depth=10 (1024 buckets) is a reasonable default for up to ~1M keys.
  static constexpr int kDefaultDepth = 10;

  /// `depth` >= 1; the tree has 2^depth leaves.
  explicit MerkleTree(int depth = kDefaultDepth);

  /// Leaf bucket of `key` in a tree of 2^depth leaves: the low `depth` bits
  /// of its FNV-1a hash. VersionedStore files its keys by the same rule, so
  /// a store's per-leaf key lists line up with a tree of its depth.
  static size_t LeafOf(const std::string& key, int depth) {
    return LeafOfHash(Fnv1a64(key), depth);
  }
  /// The same leaf from the key's Fnv1a64 hash.
  static size_t LeafOfHash(uint64_t key_hash, int depth) {
    return key_hash & ((size_t{1} << depth) - 1);
  }

  int depth() const { return depth_; }
  size_t leaf_count() const { return leaf_count_; }

  /// Reflects a change to a key's digest, given the key's Fnv1a64 hash (its
  /// leaf is the hash's low `depth` bits, as in LeafOf): pass 0 for
  /// old_digest when the key is new, 0 for new_digest when the key is
  /// removed. Digests must be the store's KeyDigest values (never 0 for a
  /// live key; callers guard this).
  void UpdateKey(uint64_t key_hash, uint64_t old_digest, uint64_t new_digest);

  /// Root digest; equal roots <=> (with overwhelming probability) equal
  /// contents.
  uint64_t RootDigest() const;

  /// Leaf bucket index for a key.
  size_t BucketFor(const std::string& key) const {
    return LeafOf(key, depth_);
  }

  uint64_t LeafDigest(size_t bucket) const;

  /// Indices of leaf buckets whose digests differ between the two trees.
  /// `digests_compared` (optional) counts internal+leaf digest comparisons —
  /// the "bytes on the wire" proxy for an interactive Merkle descent.
  static std::vector<size_t> DiffLeaves(const MerkleTree& a,
                                        const MerkleTree& b,
                                        uint64_t* digests_compared = nullptr);

 private:
  // Heap layout: node 1 is the root, children of i are 2i and 2i+1; leaves
  // occupy [leaf_count_, 2*leaf_count_).
  void PropagateUp(size_t leaf_index);

  int depth_;
  size_t leaf_count_;
  std::vector<uint64_t> nodes_;
};

}  // namespace evc

#endif  // EVC_STORAGE_MERKLE_H_

#include "storage/merkle.h"

#include "common/hash.h"

namespace evc {

MerkleTree::MerkleTree(int depth)
    : depth_(depth), leaf_count_(size_t{1} << depth) {
  EVC_CHECK(depth >= 1 && depth <= 24);
  nodes_.assign(2 * leaf_count_, 0);
  // Canonicalize internal nodes so that "all leaves zero" always produces
  // the same digests, whether reached by construction or by reverting
  // updates (HashCombine(0,0) != 0).
  for (size_t node = leaf_count_ - 1; node >= 1; --node) {
    nodes_[node] = HashCombine(nodes_[2 * node], nodes_[2 * node + 1]);
  }
}

void MerkleTree::UpdateKey(uint64_t key_hash, uint64_t old_digest,
                           uint64_t new_digest) {
  const size_t bucket = LeafOfHash(key_hash, depth_);
  uint64_t delta = 0;
  if (old_digest != 0) delta ^= Mix64(key_hash ^ old_digest);
  if (new_digest != 0) delta ^= Mix64(key_hash ^ new_digest);
  if (delta == 0) return;
  nodes_[leaf_count_ + bucket] ^= delta;
  PropagateUp(leaf_count_ + bucket);
}

void MerkleTree::PropagateUp(size_t node) {
  node /= 2;
  while (node >= 1) {
    // Parent digest must depend on child *order*, so combine rather than XOR.
    nodes_[node] = HashCombine(nodes_[2 * node], nodes_[2 * node + 1]);
    node /= 2;
  }
}

uint64_t MerkleTree::RootDigest() const { return nodes_[1]; }

uint64_t MerkleTree::LeafDigest(size_t bucket) const {
  EVC_CHECK(bucket < leaf_count_);
  return nodes_[leaf_count_ + bucket];
}

std::vector<size_t> MerkleTree::DiffLeaves(const MerkleTree& a,
                                           const MerkleTree& b,
                                           uint64_t* digests_compared) {
  EVC_CHECK(a.depth_ == b.depth_);
  std::vector<size_t> out;
  uint64_t compared = 0;
  // Iterative descent from the root, expanding only differing subtrees.
  std::vector<size_t> stack;
  stack.push_back(1);
  while (!stack.empty()) {
    const size_t node = stack.back();
    stack.pop_back();
    ++compared;
    if (a.nodes_[node] == b.nodes_[node]) continue;
    if (node >= a.leaf_count_) {
      out.push_back(node - a.leaf_count_);
    } else {
      stack.push_back(2 * node + 1);
      stack.push_back(2 * node);
    }
  }
  if (digests_compared != nullptr) *digests_compared = compared;
  return out;
}

}  // namespace evc

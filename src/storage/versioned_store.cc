#include "storage/versioned_store.h"

#include <algorithm>

#include "common/encoding.h"
#include "common/hash.h"

namespace evc {

uint64_t Version::Digest() const {
  std::string buf;
  PutLengthPrefixed(&buf, value);
  vv.EncodeTo(&buf);
  PutVarint64(&buf, lww_ts.counter);
  PutVarint64(&buf, lww_ts.node);
  buf.push_back(tombstone ? 1 : 0);
  return Fnv1a64(buf);
}

void Version::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, value);
  std::string vv_bytes;
  vv.EncodeTo(&vv_bytes);
  PutLengthPrefixed(dst, vv_bytes);
  PutVarint64(dst, lww_ts.counter);
  PutVarint64(dst, lww_ts.node);
  dst->push_back(tombstone ? 1 : 0);
}

Result<Version> Version::DecodeFrom(Decoder* dec) {
  Version v;
  EVC_RETURN_IF_ERROR(dec->GetLengthPrefixed(&v.value));
  std::string vv_bytes;
  EVC_RETURN_IF_ERROR(dec->GetLengthPrefixed(&vv_bytes));
  EVC_ASSIGN_OR_RETURN(v.vv, VersionVector::Decode(vv_bytes));
  uint64_t counter = 0, node = 0;
  EVC_RETURN_IF_ERROR(dec->GetVarint64(&counter));
  EVC_RETURN_IF_ERROR(dec->GetVarint64(&node));
  if (node > UINT32_MAX) return Status::Corruption("lww node out of range");
  v.lww_ts = LamportTimestamp{counter, static_cast<uint32_t>(node)};
  std::string flag;
  EVC_RETURN_IF_ERROR(dec->GetBytes(1, &flag));
  v.tombstone = flag[0] != 0;
  return v;
}

std::string Version::ToString() const {
  std::string out = tombstone ? "<tombstone>" : ("\"" + value + "\"");
  out += " vv=" + vv.ToString() + " ts=" + lww_ts.ToString();
  return out;
}

namespace {

// Orders a leaf's entries against a key (std::lower_bound).
constexpr auto kKeyLess = [](const auto& entry, const std::string& key) {
  return entry.key < key;
};

// KeyDigest of a sibling set: XOR of per-version digests mixed with the key
// hash, so it does not depend on sibling order.
uint64_t DigestOf(uint64_t key_hash, const std::vector<Version>& siblings) {
  uint64_t acc = 0;
  for (const auto& v : siblings) acc ^= Mix64(key_hash ^ v.Digest());
  return acc;
}

// True if some version of `siblings` dominates or equals `v`, so inserting
// `v` would change nothing.
bool SiblingSetCovers(std::span<const Version> siblings, const Version& v) {
  return std::any_of(siblings.begin(), siblings.end(),
                     [&v](const Version& existing) {
                       const CausalOrder order = existing.vv.Compare(v.vv);
                       return order == CausalOrder::kAfter ||
                              order == CausalOrder::kEqual;
                     });
}

// True if every version of `local` is strictly older than some version of
// `shipped`. Merging a shipped set (an antichain, as every stored set is)
// into such a `local` then yields `shipped` itself, version for version and
// in order: no local version covers a shipped one (it would be older than
// another shipped version), so each shipped version is appended in turn,
// and each local one is dropped by the version that dominates it.
bool StrictlyDominated(std::span<const Version> local,
                       std::span<const Version> shipped) {
  const auto older = [shipped](const Version& old) {
    return std::any_of(shipped.begin(), shipped.end(),
                       [&old](const Version& v) {
                         return v.vv.Dominates(old.vv);
                       });
  };
  return std::all_of(local.begin(), local.end(), older);
}

}  // namespace

VersionedStore::VersionedStore(uint32_t replica_id,
                               VersionedStoreOptions options, int leaf_depth)
    : replica_id_(replica_id), options_(options), leaf_depth_(leaf_depth) {
  EVC_CHECK(leaf_depth >= 1 && leaf_depth <= 24);
}

const VersionedStore::Entry* VersionedStore::Find(
    const std::string& key) const {
  if (leaves_.empty()) return nullptr;
  const Leaf& leaf = leaves_[MerkleTree::LeafOf(key, leaf_depth_)];
  auto it = std::lower_bound(leaf.begin(), leaf.end(), key, kKeyLess);
  return it != leaf.end() && it->key == key ? &*it : nullptr;
}

VersionedStore::Entry& VersionedStore::FindOrInsert(const std::string& key,
                                                    size_t leaf_index) {
  if (leaves_.empty()) leaves_.resize(size_t{1} << leaf_depth_);
  Leaf& leaf = leaves_[leaf_index];
  auto it = std::lower_bound(leaf.begin(), leaf.end(), key, kKeyLess);
  if (it == leaf.end() || it->key != key) {
    it = leaf.insert(it, Entry{key, {}, 0});
    ++key_count_;
  }
  return *it;
}

bool VersionedStore::Merge(const std::string& key, size_t leaf,
                           std::optional<uint64_t> key_hash,
                           std::span<const Version> versions,
                           const SharedSiblings* shipped,
                           KeyDigestChange* change) {
  // Callers pass at least one version, and the first always joins an absent
  // key's empty set, so FindOrInsert never leaves an empty entry behind.
  Entry& entry = FindOrInsert(key, leaf);
  if (shipped != nullptr && entry.siblings == shipped->siblings) return false;
  const uint64_t old_digest = entry.digest;
  const auto hash = [&key, &key_hash] {
    if (!key_hash.has_value()) key_hash = Fnv1a64(key);
    return *key_hash;
  };
  std::span<const Version> local;
  if (entry.siblings != nullptr) local = *entry.siblings;
  // For a shipped set, `versions` is that set.
  if (shipped != nullptr &&
      (options_.conflict_policy == ConflictPolicy::kSiblings ||
       versions.size() == 1) &&
      StrictlyDominated(local, versions)) {
    // The merge would rebuild the shipped set (and the conflict policy
    // leaves it be), so take the object and the sender's digest as they are.
    entry.siblings = shipped->siblings;
    entry.digest = shipped->digest;
  } else if (std::all_of(versions.begin(), versions.end(),
                         [local](const Version& v) {
                           return SiblingSetCovers(local, v);
                         })) {
    // Unchanged. An equal shipped set is adopted all the same, so replicas
    // that converged separately come to share one object.
    if (shipped != nullptr && std::ranges::equal(local, *shipped->siblings)) {
      entry.siblings = shipped->siblings;
    }
    return false;
  } else {
    std::vector<Version> merged(local.begin(), local.end());
    for (const Version& v : versions) InsertIntoSiblingSet(&merged, v);
    ApplyConflictPolicy(&merged);
    if (shipped != nullptr && merged == *shipped->siblings) {
      entry.siblings = shipped->siblings;
      entry.digest = shipped->digest;
    } else {
      entry.digest = DigestOf(hash(), merged);
      entry.siblings =
          std::make_shared<const std::vector<Version>>(std::move(merged));
    }
  }
  if (change != nullptr) *change = {hash(), old_digest, entry.digest};
  return true;
}

Version VersionedStore::Put(const std::string& key, std::string value,
                            const VersionVector& context, LamportTimestamp ts,
                            KeyDigestChange* change) {
  Version v;
  v.value = std::move(value);
  v.vv = context;
  // The new write's own-replica slot must exceed both our counter and any
  // own-replica event already in the context, or the write would fail to
  // dominate a version it causally follows.
  write_counter_ = std::max(write_counter_, context.Get(replica_id_)) + 1;
  v.vv.Set(replica_id_, write_counter_);
  v.lww_ts = ts;
  v.tombstone = false;
  const uint64_t key_hash = Fnv1a64(key);
  Merge(key, MerkleTree::LeafOfHash(key_hash, leaf_depth_), key_hash, {&v, 1},
        nullptr, change);
  return v;
}

Version VersionedStore::Delete(const std::string& key,
                               const VersionVector& context,
                               LamportTimestamp ts, KeyDigestChange* change) {
  Version v;
  v.vv = context;
  write_counter_ = std::max(write_counter_, context.Get(replica_id_)) + 1;
  v.vv.Set(replica_id_, write_counter_);
  v.lww_ts = ts;
  v.tombstone = true;
  const uint64_t key_hash = Fnv1a64(key);
  Merge(key, MerkleTree::LeafOfHash(key_hash, leaf_depth_), key_hash, {&v, 1},
        nullptr, change);
  return v;
}

std::vector<Version> VersionedStore::Get(const std::string& key) const {
  std::vector<Version> out;
  const Entry* entry = Find(key);
  if (entry == nullptr) return out;
  for (const auto& v : *entry->siblings) {
    if (!v.tombstone) out.push_back(v);
  }
  return out;
}

std::vector<Version> VersionedStore::GetRaw(const std::string& key) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? std::vector<Version>{} : *entry->siblings;
}

VersionVector VersionedStore::ContextFor(const std::string& key) const {
  VersionVector ctx;
  const Entry* entry = Find(key);
  if (entry == nullptr) return ctx;
  for (const auto& v : *entry->siblings) ctx.MergeWith(v.vv);
  return ctx;
}

bool InsertIntoSiblingSet(std::vector<Version>* siblings, const Version& v) {
  // Drop the insert if an existing sibling dominates or equals it.
  if (SiblingSetCovers(*siblings, v)) return false;
  // Remove existing siblings dominated by the new version.
  siblings->erase(
      std::remove_if(siblings->begin(), siblings->end(),
                     [&v](const Version& existing) {
                       return v.vv.Dominates(existing.vv);
                     }),
      siblings->end());
  siblings->push_back(v);
  return true;
}

std::vector<Version> MergeSiblingSets(
    const std::vector<std::vector<Version>>& sets) {
  std::vector<Version> out;
  for (const auto& set : sets) {
    for (const auto& v : set) InsertIntoSiblingSet(&out, v);
  }
  return out;
}

void VersionedStore::ApplyConflictPolicy(std::vector<Version>* siblings) {
  if (options_.conflict_policy != ConflictPolicy::kLastWriterWins) return;
  if (siblings->size() <= 1) return;
  auto winner = std::max_element(
      siblings->begin(), siblings->end(),
      [](const Version& a, const Version& b) { return a.lww_ts < b.lww_ts; });
  Version keep = *winner;
  // LWW collapses history: the survivor's vector absorbs the losers' so the
  // collapse propagates (otherwise losers would resurrect via anti-entropy).
  for (const auto& v : *siblings) keep.vv.MergeWith(v.vv);
  siblings->clear();
  siblings->push_back(std::move(keep));
}

bool VersionedStore::MergeRemote(const std::string& key,
                                 const std::vector<Version>& remote_versions,
                                 KeyDigestChange* change) {
  if (remote_versions.empty()) return false;
  const uint64_t key_hash = Fnv1a64(key);
  return Merge(key, MerkleTree::LeafOfHash(key_hash, leaf_depth_), key_hash,
               remote_versions, nullptr, change);
}

bool VersionedStore::MergeRemote(const SharedSiblings& shipped,
                                 KeyDigestChange* change) {
  EVC_CHECK(shipped.siblings != nullptr && !shipped.siblings->empty());
  EVC_CHECK(shipped.leaf < (size_t{1} << leaf_depth_));
  return Merge(shipped.key, shipped.leaf, std::nullopt, *shipped.siblings,
               &shipped, change);
}

size_t VersionedStore::version_count() const {
  size_t n = 0;
  for (const Leaf& leaf : leaves_) {
    for (const Entry& entry : leaf) n += entry.siblings->size();
  }
  return n;
}

uint64_t VersionedStore::KeyDigest(const std::string& key) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? 0 : entry->digest;
}

void VersionedStore::ForEachKey(const KeyVisitor& fn) const {
  std::vector<const Entry*> entries;
  entries.reserve(key_count_);
  for (const Leaf& leaf : leaves_) {
    for (const Entry& entry : leaf) entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  for (const Entry* entry : entries) fn(entry->key, *entry->siblings);
}

std::vector<SharedSiblings> VersionedStore::SiblingsInLeaves(
    const std::vector<size_t>& leaves) const {
  std::vector<size_t> wanted = leaves;
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  EVC_CHECK(wanted.empty() || wanted.back() < (size_t{1} << leaf_depth_));
  std::vector<SharedSiblings> out;
  if (leaves_.empty()) return out;
  size_t count = 0;
  for (size_t b : wanted) count += leaves_[b].size();
  out.reserve(count);
  for (size_t b : wanted) {
    for (const Entry& entry : leaves_[b]) {
      out.push_back({entry.key, entry.siblings, entry.digest, b});
    }
  }
  return out;
}

}  // namespace evc

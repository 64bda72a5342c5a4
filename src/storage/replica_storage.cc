#include "storage/replica_storage.h"

#include <utility>

#include "common/encoding.h"

namespace evc {

ReplicaStorage::ReplicaStorage(uint32_t replica_id,
                               ReplicaStorageOptions options)
    : options_(options),
      store_(replica_id, options.store, options.merkle_depth),
      merkle_(options.merkle_depth) {}

void ReplicaStorage::JournalVersions(WriteAheadLog* log, const std::string& key,
                                     std::span<const Version> versions) {
  if (!options_.durable || versions.empty()) return;
  record_.clear();
  PutLengthPrefixed(&record_, key);
  PutVarint64(&record_, versions.size());
  for (const auto& v : versions) v.EncodeTo(&record_);
  log->Append(record_);
}

void ReplicaStorage::SyncMerkle(const KeyDigestChange& change) {
  merkle_.UpdateKey(change.key_hash, change.old_digest, change.new_digest);
}

Version ReplicaStorage::Put(const std::string& key, std::string value,
                            const VersionVector& context, LamportTimestamp ts) {
  KeyDigestChange change;
  Version v = store_.Put(key, std::move(value), context, ts, &change);
  JournalVersions(&wal_, key, {&v, 1});
  SyncMerkle(change);
  return v;
}

Version ReplicaStorage::Delete(const std::string& key,
                               const VersionVector& context,
                               LamportTimestamp ts) {
  KeyDigestChange change;
  Version v = store_.Delete(key, context, ts, &change);
  JournalVersions(&wal_, key, {&v, 1});
  SyncMerkle(change);
  return v;
}

bool ReplicaStorage::MergeRemote(const std::string& key,
                                 const std::vector<Version>& remote_versions) {
  KeyDigestChange change;
  if (!store_.MergeRemote(key, remote_versions, &change)) return false;
  JournalVersions(&wal_, key, remote_versions);
  SyncMerkle(change);
  return true;
}

bool ReplicaStorage::MergeRemote(const SharedSiblings& shipped) {
  KeyDigestChange change;
  if (!store_.MergeRemote(shipped, &change)) return false;
  JournalVersions(&wal_, shipped.key, *shipped.siblings);
  SyncMerkle(change);
  return true;
}

Result<size_t> ReplicaStorage::CrashAndRecover() {
  return RecoverFromLog(&wal_);
}

uint64_t ReplicaStorage::Checkpoint() {
  const uint64_t before = wal_.size_bytes();
  WriteAheadLog snapshot;
  store_.ForEachKey([this, &snapshot](const std::string& key,
                                      const std::vector<Version>& versions) {
    JournalVersions(&snapshot, key, versions);
  });
  wal_.Checkpoint(std::move(snapshot));
  const uint64_t after = wal_.size_bytes();
  return before > after ? before - after : 0;
}

Result<size_t> ReplicaStorage::RecoverFromLog(WriteAheadLog* wal) {
  // Discard volatile state.
  store_ = VersionedStore(store_.replica_id(), options_.store,
                          options_.merkle_depth);
  merkle_ = MerkleTree(options_.merkle_depth);

  std::vector<std::string> records;
  uint64_t valid_prefix = 0;
  EVC_RETURN_IF_ERROR(wal->ReadAll(&records, &valid_prefix));
  wal->TruncateTo(valid_prefix);

  uint64_t max_own_counter = 0;
  size_t replayed = 0;
  for (const auto& record : records) {
    Decoder dec(record);
    std::string key;
    EVC_RETURN_IF_ERROR(dec.GetLengthPrefixed(&key));
    uint64_t n = 0;
    EVC_RETURN_IF_ERROR(dec.GetVarint64(&n));
    std::vector<Version> versions;
    versions.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      EVC_ASSIGN_OR_RETURN(Version v, Version::DecodeFrom(&dec));
      const uint64_t own = v.vv.Get(store_.replica_id());
      if (own > max_own_counter) max_own_counter = own;
      versions.push_back(std::move(v));
    }
    KeyDigestChange change;
    if (store_.MergeRemote(key, versions, &change)) SyncMerkle(change);
    ++replayed;
  }
  store_.RestoreCounterFloor(max_own_counter);
  return replayed;
}

}  // namespace evc

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
                                     const std::vector<Version>& versions) {
  if (!options_.durable || versions.empty()) return;
  std::string record;
  PutLengthPrefixed(&record, key);
  PutVarint64(&record, versions.size());
  for (const auto& v : versions) v.EncodeTo(&record);
  log->Append(record);
}

void ReplicaStorage::SyncMerkle(const std::string& key, uint64_t old_digest) {
  merkle_.UpdateKey(key, old_digest, store_.KeyDigest(key));
}

Version ReplicaStorage::Put(const std::string& key, std::string value,
                            const VersionVector& context, LamportTimestamp ts) {
  uint64_t old_digest = 0;
  Version v = store_.Put(key, std::move(value), context, ts, &old_digest);
  JournalVersions(&wal_, key, {v});
  SyncMerkle(key, old_digest);
  return v;
}

Version ReplicaStorage::Delete(const std::string& key,
                               const VersionVector& context,
                               LamportTimestamp ts) {
  uint64_t old_digest = 0;
  Version v = store_.Delete(key, context, ts, &old_digest);
  JournalVersions(&wal_, key, {v});
  SyncMerkle(key, old_digest);
  return v;
}

bool ReplicaStorage::MergeRemote(const std::string& key,
                                 const std::vector<Version>& remote_versions) {
  uint64_t old_digest = 0;
  if (!store_.MergeRemote(key, remote_versions, &old_digest)) return false;
  JournalVersions(&wal_, key, remote_versions);
  SyncMerkle(key, old_digest);
  return true;
}

bool ReplicaStorage::MergeRemote(const SharedSiblings& shipped) {
  uint64_t old_digest = 0;
  if (!store_.MergeRemote(shipped, &old_digest)) return false;
  JournalVersions(&wal_, shipped.key, *shipped.siblings);
  SyncMerkle(shipped.key, old_digest);
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
    uint64_t old_digest = 0;
    if (store_.MergeRemote(key, versions, &old_digest)) {
      SyncMerkle(key, old_digest);
    }
    ++replayed;
  }
  store_.RestoreCounterFloor(max_own_counter);
  return replayed;
}

}  // namespace evc

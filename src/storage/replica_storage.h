// Durable per-replica storage: VersionedStore + write-ahead log + Merkle
// tree, with crash recovery.
//
// Every state change (local put/delete, remote merge) is journaled before it
// is applied, and the Merkle tree is maintained incrementally so anti-entropy
// can diff replicas cheaply. After a simulated crash, RecoverFromLog()
// rebuilds exactly the pre-crash state (minus any torn tail record).

#ifndef EVC_STORAGE_REPLICA_STORAGE_H_
#define EVC_STORAGE_REPLICA_STORAGE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/merkle.h"
#include "storage/versioned_store.h"
#include "storage/wal.h"

namespace evc {

struct ReplicaStorageOptions {
  VersionedStoreOptions store;
  /// Depth of the Merkle tree; the store files its keys by the same leaves.
  int merkle_depth = MerkleTree::kDefaultDepth;
  /// When false, skips journaling (pure in-memory replica; faster sweeps).
  bool durable = true;
};

/// Storage engine for one replica.
class ReplicaStorage {
 public:
  explicit ReplicaStorage(uint32_t replica_id,
                          ReplicaStorageOptions options = {});

  uint32_t replica_id() const { return store_.replica_id(); }

  /// Writes a value (journals, applies, updates Merkle). See
  /// VersionedStore::Put for version-vector semantics.
  Version Put(const std::string& key, std::string value,
              const VersionVector& context, LamportTimestamp ts);

  /// Writes a tombstone.
  Version Delete(const std::string& key, const VersionVector& context,
                 LamportTimestamp ts);

  /// Live (non-tombstone) siblings.
  std::vector<Version> Get(const std::string& key) const {
    return store_.Get(key);
  }
  /// All siblings including tombstones.
  std::vector<Version> GetRaw(const std::string& key) const {
    return store_.GetRaw(key);
  }
  VersionVector ContextFor(const std::string& key) const {
    return store_.ContextFor(key);
  }

  /// Merges versions received from a peer; journals if anything changed.
  /// Returns true on change. A merge that changes nothing does one lookup
  /// and no digest work.
  bool MergeRemote(const std::string& key,
                   const std::vector<Version>& remote_versions);
  /// The same for a set another store shipped (anti-entropy): one search of
  /// the leaf the record names, and at most one hash of its key. Holding
  /// that object already costs the search alone, and a dominating or equal
  /// set is adopted (see VersionedStore::MergeRemote).
  bool MergeRemote(const SharedSiblings& shipped);

  const VersionedStore& store() const { return store_; }
  const MerkleTree& merkle() const { return merkle_; }
  WriteAheadLog* wal() { return &wal_; }

  size_t key_count() const { return store_.key_count(); }
  size_t version_count() const { return store_.version_count(); }

  /// Simulates a crash: discards all volatile state, then replays the WAL.
  /// Returns the number of records replayed.
  Result<size_t> CrashAndRecover();

  /// Rebuilds volatile state from an arbitrary log (e.g. a copied log in
  /// recovery tests). Truncates the log's torn tail if any.
  Result<size_t> RecoverFromLog(WriteAheadLog* wal);

  /// Checkpoints: rewrites the WAL as one record per live key (the current
  /// sibling sets), discarding the superseded history. Recovery after a
  /// checkpoint replays exactly key_count() records. Returns the bytes
  /// reclaimed (old log size - new log size; 0 if the log grew). Manual:
  /// unlike the Paxos and timeline journals, this log is not rewritten when
  /// WriteAheadLog::CheckpointDue() says so (see DESIGN.md §4.1).
  uint64_t Checkpoint();

 private:
  /// Appends one (key, versions) record to `log` (the live WAL, or the
  /// snapshot a checkpoint writes); no-op when not durable.
  void JournalVersions(WriteAheadLog* log, const std::string& key,
                       std::span<const Version> versions);
  void SyncMerkle(const KeyDigestChange& change);

  ReplicaStorageOptions options_;
  VersionedStore store_;
  MerkleTree merkle_;
  WriteAheadLog wal_;
  // JournalVersions encodes each record here, so appending one allocates
  // nothing once the buffer has grown to the largest record.
  std::string record_;
};

}  // namespace evc

#endif  // EVC_STORAGE_REPLICA_STORAGE_H_

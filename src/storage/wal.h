// Write-ahead log with CRC-validated records.
//
// Each replica journals its accepted writes so that a crashed replica can
// recover its pre-crash state — the tutorial's availability arguments assume
// replicas rejoin with durable state and then anti-entropy fills the gap.
// The log is a byte buffer standing in for the durable medium. Record
// framing: [crc32c(4)][len varint][payload]; recovery stops cleanly at the
// first torn/corrupt record.
//
// A log that only grows measures how long its owner has run, not what it
// holds. So every log follows one checkpoint rule, the trigger Redis uses to
// rewrite its append-only file: the log is due once it holds at least 64 KiB
// and at least twice the bytes it held just after its last checkpoint. The
// owner then rewrites it as a snapshot of its live state, and later appends
// form the tail. Because each rewrite at least halves the log, the bytes
// rewritten stay proportional to the bytes appended.

#ifndef EVC_STORAGE_WAL_H_
#define EVC_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace evc {

/// Append-only write-ahead log over an owned byte buffer.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;

  /// Appends one record; returns its starting offset.
  uint64_t Append(std::string_view record);

  /// Reads every valid record from the head of the log. On encountering a
  /// torn or corrupt record, stops and reports how many bytes were valid via
  /// `valid_prefix` (recovery truncates there) — this is not an error, it is
  /// the normal crash case. Corrupt-in-the-middle is indistinguishable from
  /// torn-at-tail and handled the same way.
  Status ReadAll(std::vector<std::string>* records,
                 uint64_t* valid_prefix = nullptr) const;

  /// Truncates the log to `size` bytes (used after recovery).
  void TruncateTo(uint64_t size);

  /// True once the log holds at least 64 KiB and at least twice
  /// base_bytes().
  bool CheckpointDue() const;

  /// Replaces every record with those of `snapshot`, a log the owner wrote
  /// from its live state (a real store writes a new file and renames it
  /// over the old one). Its size becomes the new base_bytes().
  void Checkpoint(WriteAheadLog snapshot);

  uint64_t size_bytes() const { return buffer_.size(); }
  /// Bytes the log held just after its last checkpoint (0 before the first).
  uint64_t base_bytes() const { return base_bytes_; }
  const std::string& buffer() const { return buffer_; }
  /// Test hook: corrupts the byte at `offset` (simulated media fault).
  void CorruptByteAt(uint64_t offset);

 private:
  std::string buffer_;
  uint64_t base_bytes_ = 0;
};

}  // namespace evc

#endif  // EVC_STORAGE_WAL_H_

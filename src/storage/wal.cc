#include "storage/wal.h"

#include <utility>

#include "common/encoding.h"
#include "common/hash.h"

namespace evc {
namespace {
// The checkpoint rule: no log below the floor is due, and a log above it is
// due at kCheckpointGrowth times its post-checkpoint size.
constexpr uint64_t kCheckpointFloorBytes = 64 * 1024;
constexpr uint64_t kCheckpointGrowth = 2;
}  // namespace

uint64_t WriteAheadLog::Append(std::string_view record) {
  const uint64_t offset = buffer_.size();
  PutFixed32(&buffer_, Crc32c(record));
  PutVarint64(&buffer_, record.size());
  buffer_.append(record.data(), record.size());
  return offset;
}

Status WriteAheadLog::ReadAll(std::vector<std::string>* records,
                              uint64_t* valid_prefix) const {
  records->clear();
  Decoder dec(buffer_);
  uint64_t consumed = 0;
  while (!dec.Done()) {
    uint32_t crc = 0;
    uint64_t len = 0;
    std::string payload;
    if (!dec.GetFixed32(&crc).ok() || !dec.GetVarint64(&len).ok() ||
        !dec.GetBytes(len, &payload).ok()) {
      break;  // torn tail
    }
    if (Crc32c(payload) != crc) {
      break;  // corrupt record: stop recovery here
    }
    records->push_back(std::move(payload));
    consumed = buffer_.size() - dec.remaining();
  }
  if (valid_prefix != nullptr) *valid_prefix = consumed;
  return Status::OK();
}

void WriteAheadLog::TruncateTo(uint64_t size) {
  if (size < buffer_.size()) buffer_.resize(size);
}

bool WriteAheadLog::CheckpointDue() const {
  return buffer_.size() >= kCheckpointFloorBytes &&
         buffer_.size() >= kCheckpointGrowth * base_bytes_;
}

void WriteAheadLog::Checkpoint(WriteAheadLog snapshot) {
  buffer_ = std::move(snapshot.buffer_);
  base_bytes_ = buffer_.size();
}

void WriteAheadLog::CorruptByteAt(uint64_t offset) {
  if (offset < buffer_.size()) buffer_[offset] ^= 0x5a;
}

}  // namespace evc

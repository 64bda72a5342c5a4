#include "oracle.h"

#include <algorithm>
#include <charconv>

#include "common/status.h"

namespace evc::stack {

uint64_t WriteIdOf(std::string_view value) {
  const size_t first = value.find('#');
  if (first == std::string_view::npos) return 0;
  const size_t second = value.find('#', first + 1);
  if (second == std::string_view::npos) return 0;
  uint64_t id = 0;
  std::from_chars(value.data() + first + 1, value.data() + second, id);
  return id;
}

uint64_t RecordOf(std::string_view key) {
  size_t digits = key.size();
  while (digits > 0 && key[digits - 1] >= '0' && key[digits - 1] <= '9') {
    --digits;
  }
  EVC_CHECK(digits < key.size());
  uint64_t record = 0;
  std::from_chars(key.data() + digits, key.data() + key.size(), record);
  return record;
}

FreshnessOracle::FreshnessOracle(uint64_t records)
    : acks_(records), written_(records, false) {}

void FreshnessOracle::WriteIssued(uint64_t record, uint64_t write_id,
                                  int64_t now) {
  EVC_CHECK(record < acks_.size() && write_id > 0);
  if (writes_.size() <= write_id) writes_.resize(write_id + 1);
  writes_[write_id].issued = now;
  if (!written_[record]) {
    written_[record] = true;
    ++records_written_;
  }
}

void FreshnessOracle::WriteAcked(uint64_t record, uint64_t write_id,
                                 int64_t now) {
  EVC_CHECK(write_id < writes_.size());
  Write& w = writes_[write_id];
  w.acked = now;
  std::vector<AckPoint>& acks = acks_[record];
  const int64_t prior = acks.empty() ? INT64_MIN : acks.back().max_issued;
  acks.push_back({now, std::max(prior, w.issued)});
}

bool FreshnessOracle::ReadIsStale(uint64_t record, int64_t issued,
                                  std::span<const uint64_t> write_ids) const {
  const std::vector<AckPoint>& acks = acks_[record];
  // Latest issue time among writes acked strictly before the read began.
  const auto after = std::lower_bound(
      acks.begin(), acks.end(), issued,
      [](const AckPoint& p, int64_t t) { return p.acked < t; });
  if (after == acks.begin()) return false;
  const int64_t newest_issue = std::prev(after)->max_issued;
  // The freshest returned value, by when its write was acked (an unacked or
  // still-in-flight write overlaps the read: never stale).
  int64_t freshest_ack = INT64_MIN;
  for (uint64_t id : write_ids) {
    EVC_CHECK(id > 0 && id < writes_.size());
    freshest_ack = std::max(freshest_ack, writes_[id].acked);
  }
  return newest_issue > freshest_ack;
}

std::vector<uint64_t> FreshnessOracle::WrittenRecords() const {
  std::vector<uint64_t> out;
  out.reserve(records_written_);
  for (uint64_t r = 0; r < written_.size(); ++r) {
    if (written_[r]) out.push_back(r);
  }
  return out;
}

}  // namespace evc::stack

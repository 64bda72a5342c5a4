#include "workload/workload.h"

#include <cmath>

namespace evc::workload {

namespace {
// The YCSB generator's fixed shape: zipfian skew and the record key prefix.
constexpr double kZipfTheta = 0.99;
constexpr char kKeyPrefix[] = "user";
}  // namespace

WorkloadConfig WorkloadConfig::YcsbA() {
  WorkloadConfig c;
  c.read_proportion = 0.5;
  c.update_proportion = 0.5;
  return c;
}

WorkloadConfig WorkloadConfig::YcsbB() {
  WorkloadConfig c;
  c.read_proportion = 0.95;
  c.update_proportion = 0.05;
  return c;
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, uint64_t seed)
    : config_(std::move(config)),
      rng_(seed),
      dist_(config_.record_count, kZipfTheta) {
  EVC_CHECK(std::abs(config_.read_proportion + config_.update_proportion -
                     1.0) <= 1e-9);
}

std::string WorkloadGenerator::KeyFor(uint64_t index) const {
  return kKeyPrefix + std::to_string(index);
}

std::string WorkloadGenerator::ValueFor(const std::string& key) {
  std::string value = key + "#" + std::to_string(++value_seq_) + "#";
  // Pad deterministically to the configured size.
  while (value.size() < config_.value_size) {
    value.push_back(static_cast<char>('a' + (value.size() % 26)));
  }
  value.resize(config_.value_size);
  return value;
}

KeyId WorkloadGenerator::InternIndex(uint64_t index) {
  if (id_of_index_.size() <= index) {
    id_of_index_.resize(index + 1, kInvalidKeyId);
  }
  KeyId& slot = id_of_index_[index];
  if (slot == kInvalidKeyId) slot = keys_.Intern(KeyFor(index));
  return slot;
}

Op WorkloadGenerator::Next() {
  Op op;
  op.type = rng_.NextDouble() < config_.read_proportion ? OpType::kRead
                                                        : OpType::kUpdate;
  op.key_id = InternIndex(dist_.Next(rng_));
  op.key = std::string(keys_.NameOf(op.key_id));
  if (op.type == OpType::kUpdate) op.value = ValueFor(op.key);
  return op;
}

}  // namespace evc::workload

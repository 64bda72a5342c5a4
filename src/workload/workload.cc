#include "workload/workload.h"

namespace evc::workload {

namespace {
// The YCSB generator's fixed shape: zipfian skew (also the "latest"
// distribution's), the hotspot split (20% of keys draw 80% of requests) and
// the record key prefix.
constexpr double kZipfTheta = 0.99;
constexpr double kHotspotSetFraction = 0.2;
constexpr double kHotspotDrawFraction = 0.8;
constexpr char kKeyPrefix[] = "user";
}  // namespace

const char* OpTypeToString(OpType type) {
  switch (type) {
    case OpType::kRead:
      return "read";
    case OpType::kUpdate:
      return "update";
    case OpType::kInsert:
      return "insert";
    case OpType::kReadModifyWrite:
      return "rmw";
  }
  return "?";
}

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

WorkloadConfig WorkloadConfig::YcsbC() {
  WorkloadConfig c;
  c.read_proportion = 1.0;
  c.update_proportion = 0.0;
  return c;
}

WorkloadConfig WorkloadConfig::YcsbD() {
  WorkloadConfig c;
  c.read_proportion = 0.95;
  c.update_proportion = 0.0;
  c.insert_proportion = 0.05;
  c.distribution = KeyDistributionKind::kLatest;
  return c;
}

WorkloadConfig WorkloadConfig::YcsbF() {
  WorkloadConfig c;
  c.read_proportion = 0.5;
  c.update_proportion = 0.0;
  c.rmw_proportion = 0.5;
  return c;
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, uint64_t seed)
    : config_(std::move(config)),
      rng_(seed),
      live_records_(config_.record_count) {
  EVC_CHECK(config_.record_count > 0);
  dist_ = MakeDistribution();
}

std::unique_ptr<KeyDistribution> WorkloadGenerator::MakeDistribution() const {
  switch (config_.distribution) {
    case KeyDistributionKind::kUniform:
      return std::make_unique<UniformDistribution>(config_.record_count);
    case KeyDistributionKind::kZipfian:
      return std::make_unique<ScrambledZipfianDistribution>(
          config_.record_count, kZipfTheta);
    case KeyDistributionKind::kLatest:
      return std::make_unique<LatestDistribution>(config_.record_count,
                                                  kZipfTheta);
    case KeyDistributionKind::kHotspot:
      return std::make_unique<HotspotDistribution>(
          config_.record_count, kHotspotSetFraction, kHotspotDrawFraction);
  }
  return nullptr;
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
  const double dice = rng_.NextDouble();
  double acc = config_.read_proportion;
  if (dice < acc) {
    op.type = OpType::kRead;
  } else if (dice < (acc += config_.update_proportion)) {
    op.type = OpType::kUpdate;
  } else if (dice < (acc += config_.insert_proportion)) {
    op.type = OpType::kInsert;
  } else {
    op.type = OpType::kReadModifyWrite;
  }

  uint64_t index;
  if (op.type == OpType::kInsert) {
    index = live_records_++;
    if (config_.distribution == KeyDistributionKind::kLatest) {
      static_cast<LatestDistribution*>(dist_.get())->AdvanceItemCount();
    }
  } else {
    index = dist_->Next(rng_);
  }
  op.key_id = InternIndex(index);
  op.key = std::string(keys_.NameOf(op.key_id));
  if (op.type != OpType::kRead) {
    op.value = ValueFor(op.key);
  }
  return op;
}

}  // namespace evc::workload

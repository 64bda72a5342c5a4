// YCSB-style workload generation.
//
// The experiments drive every store through the same synthetic workloads the
// systems surveyed by the tutorial were evaluated with: a keyspace of
// `record_count` records, a read / update mix, and YCSB's scrambled Zipfian
// key popularity. The presets mirror the YCSB core workloads A and B.

#ifndef EVC_WORKLOAD_WORKLOAD_H_
#define EVC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/distributions.h"
#include "common/interner.h"
#include "common/rng.h"

namespace evc::workload {

enum class OpType {
  kRead,
  kUpdate,
};

/// One generated operation. `key_id` is the key interned in the owning
/// generator's table (dense, first-draw order, deterministic per seed);
/// hot loops route by id and resolve the string only at store boundaries.
struct Op {
  OpType type = OpType::kRead;
  KeyId key_id = kInvalidKeyId;
  std::string key;
  std::string value;  // empty for reads
};

struct WorkloadConfig {
  uint64_t record_count = 1000;
  /// The two proportions must sum to 1 (the generator checks).
  double read_proportion = 0.95;
  double update_proportion = 0.05;
  size_t value_size = 100;

  /// Standard YCSB presets.
  static WorkloadConfig YcsbA();  ///< 50/50 read/update, zipfian
  static WorkloadConfig YcsbB();  ///< 95/5 read/update, zipfian
};

/// Deterministic (seeded) operation stream. Each op draws twice from the
/// seeded stream: once for its type, once for its key.
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, uint64_t seed);

  /// Next operation.
  Op Next();

  /// The canonical key string for record index `i`.
  std::string KeyFor(uint64_t index) const;

  /// Deterministic value payload for a key (self-describing for checksum
  /// assertions: value embeds the key and a sequence number).
  std::string ValueFor(const std::string& key);

  const WorkloadConfig& config() const { return config_; }

  /// Resolves an Op::key_id back to its canonical key string.
  std::string_view KeyNameOf(KeyId id) const { return keys_.NameOf(id); }
  /// Keys interned so far (== distinct keys drawn this run).
  size_t interned_keys() const { return keys_.size(); }

 private:
  /// Id for record `index`, interning its key string on first draw.
  KeyId InternIndex(uint64_t index);

  WorkloadConfig config_;
  Rng rng_;
  uint64_t value_seq_ = 0;
  ScrambledZipfianDistribution dist_;
  KeyInterner keys_;
  // Record index -> interned id; repeat draws of a hot key (the common case
  // under zipfian skew) skip string construction entirely.
  std::vector<KeyId> id_of_index_;
};

}  // namespace evc::workload

#endif  // EVC_WORKLOAD_WORKLOAD_H_

// Bench-side read-freshness oracle.
//
// Every value the bench writes embeds a unique write id (the workload
// generator's "<key>#<id>#" payload). The oracle records when each write was
// issued and acked, in virtual time, and judges each read against the
// regular-register rule: a read issued at t is STALE when some write W to
// the key was acked before t and W was issued after every returned value's
// write had been acked — i.e. the read missed a write that finished, in
// real time, after the value it returned. Writes that overlap the read or
// each other are concurrent and never make a read stale, so the oracle is
// exact for stores that serialize writes (Paxos, the timeline master) and
// for Dynamo sibling sets alike.

#ifndef EVC_BENCH_STACK_ORACLE_H_
#define EVC_BENCH_STACK_ORACLE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace evc::stack {

/// Parses the write id out of a generator value ("<key>#<id>#pad..."); 0
/// when the value carries none.
uint64_t WriteIdOf(std::string_view value);

/// Parses the record index out of a generator key ("user<index>").
uint64_t RecordOf(std::string_view key);

class FreshnessOracle {
 public:
  explicit FreshnessOracle(uint64_t records);

  void WriteIssued(uint64_t record, uint64_t write_id, int64_t now);
  void WriteAcked(uint64_t record, uint64_t write_id, int64_t now);

  /// Judges a successful read of `record` issued at `issued` that returned
  /// the values written by `write_ids` (empty: key not found).
  bool ReadIsStale(uint64_t record, int64_t issued,
                   std::span<const uint64_t> write_ids) const;

  /// Distinct records with at least one issued write.
  uint64_t records_written() const { return records_written_; }
  /// Record indexes with at least one issued write, ascending.
  std::vector<uint64_t> WrittenRecords() const;

 private:
  struct Write {
    int64_t issued = 0;
    int64_t acked = INT64_MAX;  ///< INT64_MAX: not (yet) acked
  };
  struct AckPoint {
    int64_t acked = 0;
    int64_t max_issued = 0;  ///< max issue time over acks up to this one
  };

  std::vector<Write> writes_;                 ///< indexed by write id
  std::vector<std::vector<AckPoint>> acks_;   ///< per record, in ack order
  std::vector<bool> written_;                 ///< per record
  uint64_t records_written_ = 0;
};

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_ORACLE_H_

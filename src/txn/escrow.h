// Escrow reservations (O'Neil 1986) for high-contention counters, plus the
// naive replicated counter they fix.
//
// The tutorial's answer to "how do you decrement inventory without
// coordination per operation?": pre-partition the quantity into per-replica
// escrow shares. A decrement that fits the local share commits locally with
// no coordination and cannot violate the global invariant (sum of shares
// never goes negative). When the local share runs dry, the replica
// rebalances from peers — coordination proportional to imbalance, not to
// operation count. NaiveCounterCluster is the baseline: local check +
// asynchronous delta propagation, which oversells under contention
// (Table 2 counts the oversold units).

#ifndef EVC_TXN_ESCROW_H_
#define EVC_TXN_ESCROW_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/rpc.h"

namespace evc::txn {

struct EscrowOptions {
  sim::Time rpc_timeout = 2 * sim::kSecond;
};

struct EscrowStats {
  uint64_t acquires_ok = 0;
  uint64_t acquires_aborted = 0;
  uint64_t transfers = 0;        ///< escrow rebalance rounds
  int64_t transferred_units = 0;
};

/// Replicated counter with escrow: Acquire(k) succeeds iff the global
/// remaining quantity allows it, with purely local fast-path decisions.
class EscrowCluster {
 public:
  EscrowCluster(sim::Rpc* rpc, int replica_count, int64_t initial_total,
                EscrowOptions options = {});

  using AcquireCallback = std::function<void(Result<int64_t>)>;

  /// Acquires `amount` units at `replica`. The callback gets the replica's
  /// remaining share, or Aborted when the escrow cannot cover it (after one
  /// rebalance attempt).
  void Acquire(sim::NodeId client, int replica, int64_t amount,
               AcquireCallback done);

  sim::NodeId replica_node(int index) const;
  int64_t ShareOf(int replica) const;
  /// Sum of shares still held (invariant: initial_total - acquired).
  int64_t TotalRemaining() const;
  int64_t total_acquired() const { return total_acquired_; }

  const EscrowStats& stats() const { return stats_; }

 private:
  struct Replica {
    sim::NodeId node = 0;
    int index = 0;
    int64_t share = 0;
  };
  struct AcquireReq {
    int64_t amount = 0;
    bool allow_steal = true;
  };
  struct StealReq {
    int64_t wanted = 0;
  };

  void RegisterHandlers(Replica* replica);
  void HandleAcquire(Replica* replica, const AcquireReq& req,
                     sim::RpcResponder respond);
  int RichestPeer(const Replica& replica) const;

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_acquire_ = 0;
  sim::MethodId m_steal_ = 0;
  EscrowOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  int64_t total_acquired_ = 0;
  EscrowStats stats_;
};

struct NaiveCounterStats {
  uint64_t acquires_ok = 0;
  uint64_t acquires_aborted = 0;
};

/// The broken baseline: each replica holds an eventually consistent copy of
/// the counter, checks locally, and gossips deltas. Concurrent acquires at
/// different replicas both pass the check — the counter oversells.
class NaiveCounterCluster {
 public:
  NaiveCounterCluster(sim::Rpc* rpc, int replica_count, int64_t initial_total,
                      sim::Time rpc_timeout = 2 * sim::kSecond);

  using AcquireCallback = std::function<void(Result<int64_t>)>;
  void Acquire(sim::NodeId client, int replica, int64_t amount,
               AcquireCallback done);

  sim::NodeId replica_node(int index) const;
  int64_t ValueAt(int replica) const;
  int64_t total_acquired() const { return total_acquired_; }
  int64_t initial_total() const { return initial_total_; }
  /// Units sold beyond the initial stock (0 when behaving correctly).
  int64_t Oversold() const {
    return total_acquired_ > initial_total_ ? total_acquired_ - initial_total_
                                            : 0;
  }
  const NaiveCounterStats& stats() const { return stats_; }

 private:
  struct Replica {
    sim::NodeId node = 0;
    int64_t cached = 0;
  };
  struct AcquireReq {
    int64_t amount = 0;
  };

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_naive_acquire_ = 0;
  sim::MsgType t_naive_delta_ = 0;
  sim::Time rpc_timeout_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  int64_t initial_total_ = 0;
  int64_t total_acquired_ = 0;
  NaiveCounterStats stats_;
};

}  // namespace evc::txn

#endif  // EVC_TXN_ESCROW_H_

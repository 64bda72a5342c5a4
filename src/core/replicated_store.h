// Unified facade over every consistency protocol in evc.
//
// The tutorial's central message is that consistency is a *dial*, not a
// binary. ReplicatedStore exposes that dial as one enum: construct a
// geo-replicated store at a chosen level and issue Put/Get from clients
// pinned to datacenters; the facade wires up the right protocol stack
// underneath (Dynamo quorums + anti-entropy, Multi-Paxos, COPS, PNUTS) and
// records per-operation latency. Examples and the Fig. 1 bench are written
// against this API.

#ifndef EVC_CORE_REPLICATED_STORE_H_
#define EVC_CORE_REPLICATED_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/rpc.h"

namespace evc {
namespace repl {
class DynamoCluster;
class TimelineCluster;
}  // namespace repl
namespace consensus {
class PaxosCluster;
class PaxosKvClient;
}  // namespace consensus
namespace causal {
class CausalCluster;
class CausalClient;
}  // namespace causal
}  // namespace evc

namespace evc::core {

/// The consistency dial.
enum class ConsistencyLevel {
  kEventual,   ///< Dynamo N=3 R=1 W=1, sloppy quorums, anti-entropy
  kQuorum,     ///< Dynamo N=3 R=2 W=2 (read-your-latest via intersection)
  kCausal,     ///< COPS-style causal+ (local reads/writes, dep tracking)
  kTimeline,   ///< PNUTS primary-copy (master writes, any-replica reads)
  kStrong,     ///< Multi-Paxos replicated log (linearizable)
};

const char* ConsistencyLevelToString(ConsistencyLevel level);

struct StoreOptions {
  ConsistencyLevel level = ConsistencyLevel::kEventual;
  /// Datacenters in the WAN topology (1..5; uses the 3- or 5-region preset),
  /// one storage server each.
  int datacenters = 3;
  uint64_t seed = 1;
};

/// A geo-replicated KV store at one consistency level, self-contained with
/// its own simulator.
class ReplicatedStore {
 public:
  explicit ReplicatedStore(StoreOptions options);
  ~ReplicatedStore();

  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;

  /// The virtual clock everything runs on. Use RunFor to make progress.
  sim::Simulator* simulator() { return sim_.get(); }
  const StoreOptions& options() const { return options_; }

  /// Creates a client attached to datacenter `dc` (0-based).
  sim::NodeId AddClient(int dc);

  using WriteCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Result<std::string>)>;

  /// Writes through the level-appropriate protocol. The per-client causal
  /// context is managed internally (read-before-write contexts for the
  /// quorum levels, dependency tracking for causal).
  void Put(sim::NodeId client, const std::string& key, std::string value,
           WriteCallback done);

  /// Reads at the store's consistency level. Concurrent siblings (possible
  /// at kEventual) are resolved newest-timestamp-first for this facade; use
  /// repl::DynamoCluster directly for application-level merges.
  void Get(sim::NodeId client, const std::string& key, ReadCallback done);

  /// Latency of completed operations, in virtual microseconds.
  const Histogram& put_latency() const { return put_latency_; }
  const Histogram& get_latency() const { return get_latency_; }
  uint64_t puts_failed() const { return puts_failed_; }
  uint64_t gets_failed() const { return gets_failed_; }

  /// Runs the simulation forward (convenience passthrough).
  void RunFor(sim::Time duration);

 private:
  struct ClientState;
  struct Impl;

  StoreOptions options_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  sim::WanMatrixLatency* wan_ = nullptr;  // owned by net_
  std::unique_ptr<Impl> impl_;
  std::map<sim::NodeId, std::unique_ptr<ClientState>> clients_;
  Histogram put_latency_;
  Histogram get_latency_;
  uint64_t puts_failed_ = 0;
  uint64_t gets_failed_ = 0;
};

}  // namespace evc::core

#endif  // EVC_CORE_REPLICATED_STORE_H_

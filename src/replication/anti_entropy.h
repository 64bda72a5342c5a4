// Epidemic anti-entropy: periodic pairwise Merkle-tree synchronization.
//
// Each replica periodically picks `fanout` random peers and runs a push-pull
// sync: exchange Merkle root, then leaf digests, then only the keys in
// divergent buckets. Updates spread epidemically — expected convergence time
// grows logarithmically in cluster size — and sync cost is proportional to
// divergence rather than database size (Fig. 3 measures both claims). That
// holds for host CPU as well as for what is shipped: a leaf-digest compare
// is O(leaves), and the store hands over the divergent leaves' keys leaf by
// leaf, in the order it files them, without walking or sorting anything
// else. A key travels as the sender's immutable sibling-set object, never a
// copy, with its digest and the leaf it is filed under. Merging a record
// costs one search of that leaf: a set the receiver already holds stops
// there, one that changes nothing costs a few version-vector compares, and
// one that strictly dominates the local versions is adopted, object and
// digest, at the cost of one key hash for the Merkle update and one WAL
// record. So a converged cluster keeps one set per version however many
// replicas hold the key.

#ifndef EVC_REPLICATION_ANTI_ENTROPY_H_
#define EVC_REPLICATION_ANTI_ENTROPY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/network.h"
#include "storage/replica_storage.h"

namespace evc::repl {

struct AntiEntropyOptions {
  sim::Time interval = 100 * sim::kMillisecond;  ///< gossip round period
  int fanout = 1;          ///< peers contacted per round
  bool push_pull = true;   ///< false = push only (slower convergence)
  /// Optional liveness filter for gossip peer selection (e.g. a node's
  /// phi-accrual verdict via DynamoCluster::PeerUsable). A round re-draws a
  /// few times past unusable peers rather than wasting its fanout on a
  /// suspect; unset = every peer is eligible (the seed behavior).
  std::function<bool(sim::NodeId self, sim::NodeId peer)> peer_usable;
  /// Optional load oracle (e.g. sim::Rpc::PeerLoad over the piggybacked
  /// reply signal): peers reporting at least 75 percent are skipped this
  /// round (counted in peers_yielded). Anti-entropy is the definition of
  /// deferrable work — syncing an overloaded peer later is free; syncing it
  /// now deepens its queue.
  std::function<uint32_t(sim::NodeId self, sim::NodeId peer)> load_of;
};

struct AntiEntropyStats {
  uint64_t rounds = 0;            ///< gossip rounds initiated
  uint64_t syncs_skipped = 0;     ///< roots matched, nothing to do
  uint64_t buckets_exchanged = 0; ///< divergent leaf buckets shipped
  uint64_t keys_shipped = 0;      ///< (key, sibling-set) payloads sent
  uint64_t digests_shipped = 0;   ///< leaf digests sent (root probes too)
  uint64_t peers_skipped = 0;     ///< draws rejected by peer_usable
  uint64_t peers_yielded = 0;     ///< draws skipped: peer reported load
};

/// Runs anti-entropy among replicas whose storage it does not own.
/// DynamoCluster::StartAntiEntropy builds one over the cluster's servers and
/// keeps it in step with committed views: AddMember on a live join,
/// MarkDeparted once a committed view omits a server an earlier one listed.
/// Callers that gossip over bare storages construct one directly.
class AntiEntropy {
 public:
  /// `nodes[i]` is the network id whose storage is `storages[i]`. All
  /// storages must share the same Merkle depth (checked here and in
  /// AddMember).
  AntiEntropy(sim::Network* network, std::vector<sim::NodeId> nodes,
              std::vector<ReplicaStorage*> storages,
              AntiEntropyOptions options);

  /// Starts the periodic gossip timers (one per replica, phase-staggered).
  void Start();

  /// Live membership hooks (elastic clusters; static runs never call these
  /// and keep bit-identical rng draws). AddMember wires a newly joined
  /// node's storage into the gossip mesh — after Start it begins gossiping
  /// on its own staggered timer. MarkDeparted keeps the node's handlers
  /// registered (late pushes merge harmlessly) but excludes it from peer
  /// draws (counted in peers_skipped), round initiation, and Converged.
  void AddMember(sim::NodeId node, ReplicaStorage* storage);
  void MarkDeparted(sim::NodeId node);

  /// Runs one synchronous sync between two members *now* (test hook and
  /// convergence measurement without timers). Returns true if any state
  /// moved in either direction.
  bool SyncPair(size_t a_index, size_t b_index);

  const AntiEntropyStats& stats() const { return stats_; }

  /// True if every replica's Merkle root matches.
  bool Converged() const;

 private:
  struct SyncRequest {
    uint64_t root = 0;
    std::vector<uint64_t> leaf_digests;  // sender's leaves
  };
  struct SyncReply {
    // Keys + sibling sets for buckets where the receiver differs, plus the
    // list of divergent buckets so the initiator can push back its sets.
    std::vector<SharedSiblings> keys;
    std::vector<size_t> divergent_buckets;
  };

  void RegisterHandlers(size_t index);
  void GossipRound(size_t index);
  void GossipTick(size_t index);
  /// Global metrics registry of the owning simulator (ae.* instruments).
  obs::MetricsRegistry& Obs();

  sim::Network* network_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MsgType t_sync_req_ = 0;
  sim::MsgType t_sync_rsp_ = 0;
  sim::MsgType t_push_ = 0;
  std::vector<sim::NodeId> nodes_;
  std::vector<ReplicaStorage*> storages_;
  std::vector<bool> departed_;  // parallel to nodes_
  std::map<sim::NodeId, size_t> index_of_;
  bool started_ = false;
  AntiEntropyOptions options_;
  AntiEntropyStats stats_;
  Rng rng_;
  // ae.* counters, bumped on every gossip round and every sync.
  obs::LazyCounter c_rounds_;
  obs::LazyCounter c_peer_skips_;
  obs::LazyCounter c_load_yields_;
  obs::LazyCounter c_digests_shipped_;
  obs::LazyCounter c_buckets_exchanged_;
  obs::LazyCounter c_keys_shipped_;
  obs::LazyCounter c_syncs_skipped_;
};

}  // namespace evc::repl

#endif  // EVC_REPLICATION_ANTI_ENTROPY_H_

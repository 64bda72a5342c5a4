#include "replication/anti_entropy.h"

#include "common/logging.h"

namespace evc::repl {

namespace {
constexpr char kSyncReq[] = "ae.sync";
constexpr char kSyncRsp[] = "ae.sync.reply";
constexpr char kPush[] = "ae.push";
// Load percent at which a peer is skipped for this round (see load_of).
constexpr uint32_t kYieldLoad = 75;
}  // namespace

AntiEntropy::AntiEntropy(sim::Network* network, std::vector<sim::NodeId> nodes,
                         std::vector<ReplicaStorage*> storages,
                         AntiEntropyOptions options)
    : network_(network),
      nodes_(std::move(nodes)),
      storages_(std::move(storages)),
      options_(options),
      rng_(network->simulator()->rng().Fork(0xae0ae0)),
      c_rounds_(&Obs(), "ae.rounds"),
      c_peer_skips_(&Obs(), "ae.peer_skips"),
      c_load_yields_(&Obs(), "ae.load_yields"),
      c_digests_shipped_(&Obs(), "ae.digests_shipped"),
      c_buckets_exchanged_(&Obs(), "ae.buckets_exchanged"),
      c_keys_shipped_(&Obs(), "ae.keys_shipped"),
      c_syncs_skipped_(&Obs(), "ae.syncs_skipped") {
  EVC_CHECK(nodes_.size() == storages_.size());
  EVC_CHECK(!nodes_.empty());
  // Leaf digests and per-leaf key lists are compared index by index.
  for (const ReplicaStorage* storage : storages_) {
    EVC_CHECK(storage->merkle().depth() == storages_[0]->merkle().depth());
  }
  t_sync_req_ = network_->InternType(kSyncReq);
  t_sync_rsp_ = network_->InternType(kSyncRsp);
  t_push_ = network_->InternType(kPush);
  departed_.assign(nodes_.size(), false);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    index_of_[nodes_[i]] = i;
    RegisterHandlers(i);
  }
}

void AntiEntropy::AddMember(sim::NodeId node, ReplicaStorage* storage) {
  EVC_CHECK(index_of_.count(node) == 0);
  EVC_CHECK(storage->merkle().depth() == storages_[0]->merkle().depth());
  const size_t index = nodes_.size();
  nodes_.push_back(node);
  storages_.push_back(storage);
  departed_.push_back(false);
  index_of_[node] = index;
  RegisterHandlers(index);
  if (started_) {
    const sim::Time phase =
        static_cast<sim::Time>(rng_.NextBounded(options_.interval) + 1);
    network_->simulator()->ScheduleAfter(phase,
                                         [this, index] { GossipTick(index); });
  }
}

void AntiEntropy::MarkDeparted(sim::NodeId node) {
  auto it = index_of_.find(node);
  EVC_CHECK(it != index_of_.end());
  departed_[it->second] = true;
}

obs::MetricsRegistry& AntiEntropy::Obs() {
  return network_->simulator()->metrics().global();
}

void AntiEntropy::RegisterHandlers(size_t index) {
  // Receiving a sync request: compare leaves, merge nothing yet (we do not
  // have the sender's keys), reply with our keys for divergent buckets and
  // the bucket list so the sender can push back.
  network_->RegisterHandler(
      nodes_[index], t_sync_req_, [this, index](sim::Message msg) {
        auto req = std::move(msg.payload).Take<SyncRequest>();
        ReplicaStorage* storage = storages_[index];
        SyncReply reply;
        if (req.root != storage->merkle().RootDigest()) {
          for (size_t b = 0; b < req.leaf_digests.size(); ++b) {
            if (storage->merkle().LeafDigest(b) != req.leaf_digests[b]) {
              reply.divergent_buckets.push_back(b);
            }
          }
          reply.keys =
              storage->store().SiblingsInLeaves(reply.divergent_buckets);
          stats_.buckets_exchanged += reply.divergent_buckets.size();
          stats_.keys_shipped += reply.keys.size();
          c_buckets_exchanged_.Inc(reply.divergent_buckets.size());
          c_keys_shipped_.Inc(reply.keys.size());
        }
        network_->Send(msg.to, msg.from, t_sync_rsp_, std::move(reply));
      });

  // Receiving the reply: merge the peer's keys, then (push-pull) send back
  // our versions for the divergent buckets.
  network_->RegisterHandler(
      nodes_[index], t_sync_rsp_, [this, index](sim::Message msg) {
        auto reply = std::move(msg.payload).Take<SyncReply>();
        ReplicaStorage* storage = storages_[index];
        for (const SharedSiblings& shipped : reply.keys) {
          storage->MergeRemote(shipped);
        }
        if (options_.push_pull && !reply.divergent_buckets.empty()) {
          auto mine =
              storage->store().SiblingsInLeaves(reply.divergent_buckets);
          stats_.keys_shipped += mine.size();
          c_keys_shipped_.Inc(mine.size());
          network_->Send(msg.to, msg.from, t_push_, std::move(mine));
        }
      });

  // Receiving pushed keys.
  network_->RegisterHandler(
      nodes_[index], t_push_, [this, index](sim::Message msg) {
        auto keys =
            std::move(msg.payload).Take<std::vector<SharedSiblings>>();
        for (const SharedSiblings& shipped : keys) {
          storages_[index]->MergeRemote(shipped);
        }
      });
}

void AntiEntropy::GossipRound(size_t index) {
  if (!network_->IsNodeUp(nodes_[index])) return;
  // A departed member initiates no rounds: it is no longer responsible for
  // converging anyone, and pulling state back onto it would fight the
  // migration that just moved that state off.
  if (departed_[index]) return;
  ++stats_.rounds;
  c_rounds_.Inc();
  ReplicaStorage* storage = storages_[index];
  for (int f = 0; f < options_.fanout; ++f) {
    if (nodes_.size() < 2) return;
    // Draw a peer, re-drawing past self (as before). With a liveness filter
    // installed, also re-draw past unusable peers, but give up on the round
    // after a few rejections so a fully-suspect membership terminates.
    // Without a filter the rng consumption is identical to the original
    // draw-until-not-self loop.
    size_t peer = index;
    bool found = false;
    int rejected = 0;
    while (true) {
      const size_t candidate = rng_.NextBounded(nodes_.size());
      if (candidate == index) continue;
      // The seed bug this PR fixes: the peer pool was the construction-time
      // node list, so gossip kept hammering removed nodes forever. Departed
      // peers now count as skips, same as detector-suspect ones. (Static
      // runs have no departed entries — rng draw order is untouched.)
      if (departed_[candidate]) {
        ++stats_.peers_skipped;
        c_peer_skips_.Inc();
        if (++rejected >= 8) break;
        continue;
      }
      if (options_.peer_usable &&
          !options_.peer_usable(nodes_[index], nodes_[candidate])) {
        ++stats_.peers_skipped;
        c_peer_skips_.Inc();
        if (++rejected >= 8) break;
        continue;
      }
      // Backpressure: a peer advertising load (piggybacked on its recent
      // replies) gets left alone this round. Same redraw-skip discipline as
      // the liveness filter; unset hook = no rng perturbation.
      if (options_.load_of && options_.load_of(nodes_[index],
                                               nodes_[candidate]) >=
                                  kYieldLoad) {
        ++stats_.peers_yielded;
        c_load_yields_.Inc();
        if (++rejected >= 8) break;
        continue;
      }
      peer = candidate;
      found = true;
      break;
    }
    if (!found) continue;
    SyncRequest req;
    req.root = storage->merkle().RootDigest();
    const size_t leaves = storage->merkle().leaf_count();
    req.leaf_digests.reserve(leaves);
    for (size_t b = 0; b < leaves; ++b) {
      req.leaf_digests.push_back(storage->merkle().LeafDigest(b));
    }
    stats_.digests_shipped += leaves + 1;
    c_digests_shipped_.Inc(leaves + 1);
    network_->Send(nodes_[index], nodes_[peer], t_sync_req_, std::move(req));
  }
}

void AntiEntropy::Start() {
  started_ = true;
  sim::Simulator* sim = network_->simulator();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    // Stagger the first round so all replicas don't fire simultaneously.
    const sim::Time phase =
        static_cast<sim::Time>(rng_.NextBounded(options_.interval) + 1);
    sim->ScheduleAfter(phase, [this, i] { GossipTick(i); });
  }
}

void AntiEntropy::GossipTick(size_t index) {
  GossipRound(index);
  network_->simulator()->ScheduleAfter(options_.interval,
                                       [this, index] { GossipTick(index); });
}

bool AntiEntropy::SyncPair(size_t a_index, size_t b_index) {
  ReplicaStorage* a = storages_[a_index];
  ReplicaStorage* b = storages_[b_index];
  ++stats_.rounds;
  c_rounds_.Inc();
  if (a->merkle().RootDigest() == b->merkle().RootDigest()) {
    ++stats_.syncs_skipped;
    c_syncs_skipped_.Inc();
    return false;
  }
  uint64_t compared = 0;
  std::vector<size_t> divergent =
      MerkleTree::DiffLeaves(a->merkle(), b->merkle(), &compared);
  stats_.digests_shipped += compared;
  stats_.buckets_exchanged += divergent.size();
  c_digests_shipped_.Inc(compared);
  c_buckets_exchanged_.Inc(divergent.size());
  const auto from_a = a->store().SiblingsInLeaves(divergent);
  const auto from_b = b->store().SiblingsInLeaves(divergent);
  stats_.keys_shipped += from_a.size() + from_b.size();
  c_keys_shipped_.Inc(from_a.size() + from_b.size());
  bool changed = false;
  for (const SharedSiblings& shipped : from_a) {
    changed |= b->MergeRemote(shipped);
  }
  for (const SharedSiblings& shipped : from_b) {
    changed |= a->MergeRemote(shipped);
  }
  return changed;
}

bool AntiEntropy::Converged() const {
  // Departed members are out of scope: nothing gossips toward them, so
  // their roots drift from the live set's by design.
  bool first = true;
  uint64_t root = 0;
  for (size_t i = 0; i < storages_.size(); ++i) {
    if (departed_[i]) continue;
    const uint64_t r = storages_[i]->merkle().RootDigest();
    if (first) {
      root = r;
      first = false;
    } else if (r != root) {
      return false;
    }
  }
  return true;
}

}  // namespace evc::repl

#include "txn/escrow.h"

#include <algorithm>

namespace evc::txn {

namespace {
/// A dry replica asks the richest peer for this fraction of its share.
constexpr double kStealFraction = 0.5;
constexpr char kAcquire[] = "esc.acquire";
constexpr char kSteal[] = "esc.steal";
constexpr char kNaiveAcquire[] = "nv.acquire";
constexpr char kNaiveDelta[] = "nv.delta";
}  // namespace

// ---------------------------------------------------------------------------
// EscrowCluster
// ---------------------------------------------------------------------------

EscrowCluster::EscrowCluster(sim::Rpc* rpc, int replica_count,
                             int64_t initial_total, EscrowOptions options)
    : rpc_(rpc), options_(options) {
  EVC_CHECK(rpc_ != nullptr);
  m_acquire_ = rpc_->InternMethod(kAcquire);
  m_steal_ = rpc_->InternMethod(kSteal);
  EVC_CHECK(replica_count >= 1);
  EVC_CHECK(initial_total >= 0);
  const int64_t base = initial_total / replica_count;
  int64_t remainder = initial_total % replica_count;
  for (int i = 0; i < replica_count; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->node = rpc_->network()->AddNode();
    replica->index = i;
    replica->share = base + (remainder-- > 0 ? 1 : 0);
    RegisterHandlers(replica.get());
    replicas_.push_back(std::move(replica));
  }
}

sim::NodeId EscrowCluster::replica_node(int index) const {
  EVC_CHECK(index >= 0 && index < static_cast<int>(replicas_.size()));
  return replicas_[index]->node;
}

int64_t EscrowCluster::ShareOf(int replica) const {
  EVC_CHECK(replica >= 0 && replica < static_cast<int>(replicas_.size()));
  return replicas_[replica]->share;
}

int64_t EscrowCluster::TotalRemaining() const {
  int64_t total = 0;
  for (const auto& r : replicas_) total += r->share;
  return total;
}

int EscrowCluster::RichestPeer(const Replica& replica) const {
  int richest = -1;
  int64_t best = 0;
  for (const auto& peer : replicas_) {
    if (peer->index == replica.index) continue;
    if (peer->share > best) {
      best = peer->share;
      richest = peer->index;
    }
  }
  return richest;
}

void EscrowCluster::RegisterHandlers(Replica* replica) {
  rpc_->RegisterHandler(
      replica->node, m_acquire_,
      [this, replica](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto acquire = std::move(req).Take<AcquireReq>();
        HandleAcquire(replica, acquire, std::move(respond));
      });

  rpc_->RegisterHandler(
      replica->node, m_steal_,
      [this, replica](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto steal = std::move(req).Take<StealReq>();
        // Give the larger of `wanted` and a fraction of our share, bounded
        // by what we hold. Giving from our escrow can never break the
        // invariant: units merely change custodian.
        const int64_t fraction = static_cast<int64_t>(
            static_cast<double>(replica->share) * kStealFraction);
        int64_t give = std::max(steal.wanted, fraction);
        if (give > replica->share) give = replica->share;
        replica->share -= give;
        if (give > 0) {
          ++stats_.transfers;
          stats_.transferred_units += give;
        }
        respond(give);
      });
}

void EscrowCluster::HandleAcquire(Replica* replica, const AcquireReq& req,
                                  sim::RpcResponder respond) {
  if (replica->share >= req.amount) {
    // Fast path: purely local, invariant-safe.
    replica->share -= req.amount;
    total_acquired_ += req.amount;
    ++stats_.acquires_ok;
    respond(replica->share);
    return;
  }
  if (!req.allow_steal) {
    ++stats_.acquires_aborted;
    respond(Status::Aborted("escrow exhausted"));
    return;
  }
  // Slow path: rebalance from the richest peer, then retry once.
  const int peer = RichestPeer(*replica);
  if (peer < 0) {
    ++stats_.acquires_aborted;
    respond(Status::Aborted("escrow exhausted (no peers)"));
    return;
  }
  StealReq steal{req.amount - replica->share};
  AcquireReq retry = req;
  retry.allow_steal = false;
  rpc_->Call(replica->node, replicas_[peer]->node, m_steal_, steal,
             options_.rpc_timeout,
             [this, replica, retry, respond](Result<sim::Payload> r) mutable {
               if (r.ok()) {
                 replica->share += std::move(r).value().Take<int64_t>();
               }
               HandleAcquire(replica, retry, std::move(respond));
             });
}

void EscrowCluster::Acquire(sim::NodeId client, int replica, int64_t amount,
                            AcquireCallback done) {
  EVC_CHECK(amount > 0);
  AcquireReq req{amount, /*allow_steal=*/true};
  rpc_->Call(client, replica_node(replica), m_acquire_, req,
             2 * options_.rpc_timeout, [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<int64_t>());
               }
             });
}

// ---------------------------------------------------------------------------
// NaiveCounterCluster
// ---------------------------------------------------------------------------

NaiveCounterCluster::NaiveCounterCluster(sim::Rpc* rpc, int replica_count,
                                         int64_t initial_total,
                                         sim::Time rpc_timeout)
    : rpc_(rpc), rpc_timeout_(rpc_timeout), initial_total_(initial_total) {
  EVC_CHECK(rpc_ != nullptr);
  m_naive_acquire_ = rpc_->InternMethod(kNaiveAcquire);
  t_naive_delta_ = rpc_->network()->InternType(kNaiveDelta);
  for (int i = 0; i < replica_count; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->node = rpc_->network()->AddNode();
    replica->cached = initial_total;
    Replica* raw = replica.get();

    rpc_->network()->RegisterHandler(
        raw->node, t_naive_delta_, [raw](sim::Message msg) {
          raw->cached -= std::move(msg.payload).Take<int64_t>();
        });

    rpc_->RegisterHandler(
        raw->node, m_naive_acquire_,
        [this, raw](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
          auto acquire = std::move(req).Take<AcquireReq>();
          // Check-then-act against a possibly stale cache: the classic
          // race. Two replicas both see stock and both sell it.
          if (raw->cached < acquire.amount) {
            ++stats_.acquires_aborted;
            respond(Status::Aborted("out of stock (cached view)"));
            return;
          }
          raw->cached -= acquire.amount;
          total_acquired_ += acquire.amount;
          ++stats_.acquires_ok;
          for (const auto& peer : replicas_) {
            if (peer->node != raw->node) {
              rpc_->network()->Send(raw->node, peer->node, t_naive_delta_,
                                    acquire.amount);
            }
          }
          respond(raw->cached);
        });

    replicas_.push_back(std::move(replica));
  }
}

sim::NodeId NaiveCounterCluster::replica_node(int index) const {
  EVC_CHECK(index >= 0 && index < static_cast<int>(replicas_.size()));
  return replicas_[index]->node;
}

int64_t NaiveCounterCluster::ValueAt(int replica) const {
  EVC_CHECK(replica >= 0 && replica < static_cast<int>(replicas_.size()));
  return replicas_[replica]->cached;
}

void NaiveCounterCluster::Acquire(sim::NodeId client, int replica,
                                  int64_t amount, AcquireCallback done) {
  EVC_CHECK(amount > 0);
  AcquireReq req{amount};
  rpc_->Call(client, replica_node(replica), m_naive_acquire_, req, rpc_timeout_,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<int64_t>());
               }
             });
}

}  // namespace evc::txn

// Paxos-backed membership configuration service.
//
// Reconfiguration is a first-class consensus decision, not gossip: epoch
// e+1's member set is claimed in the config Paxos group's replicated KV with
// a conditional put (kPutIfAbsent on key "m/<e+1>"), so exactly one proposal
// per epoch can ever win, no matter how proposals race or retry. The service
// then runs a two-phase handoff:
//
//   1. PREPARE — the winning view is published alongside the committed one.
//      Data nodes seeing a prepared view start streaming moved key ranges to
//      their new owners while traffic keeps flowing (writes to in-motion
//      ranges take extra write legs / hinted handoff to the new owners), and
//      report catch-up back here when their outbound delta has drained.
//   2. COMMIT — once every member of old ∪ new has reported (or a
//      conservative timeout fires, counted in cfg.commit_timeouts), the
//      commit record is chosen through Paxos and the committed view flips.
//      Subscribers learn via push broadcast; a periodic pull (Fetch) covers
//      nodes that were crashed or partitioned during the push.
//
// The service itself lives on one sim node and talks to data nodes over the
// simulated network, so partitions and latency faults delay view
// propagation exactly as they would in production. The epoch fence on every
// data-plane RPC is what keeps that delay safe (see DESIGN.md §4.4).

#ifndef EVC_MEMBERSHIP_CONFIG_SERVICE_H_
#define EVC_MEMBERSHIP_CONFIG_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/paxos.h"
#include "membership/view.h"
#include "sim/rpc.h"

namespace evc::membership {

struct ConfigStats {
  uint64_t reconfigs_proposed = 0;
  uint64_t commits = 0;
  uint64_t commit_timeouts = 0;
  uint64_t catch_up_reports = 0;
  uint64_t view_broadcasts = 0;
};

/// The full published state: the committed view plus the prepared successor
/// (when a reconfiguration is in flight). This is what broadcasts carry and
/// what Fetch returns.
struct ViewState {
  MembershipView committed;
  bool has_prepared = false;
  MembershipView prepared;
};

class ConfigService {
 public:
  /// Invoked on a subscriber node when a view push or fetch reply lands.
  using ViewHandler = std::function<void(
      const MembershipView& committed,
      const std::optional<MembershipView>& prepared)>;
  using DoneCallback = std::function<void(Status)>;

  /// `paxos` must already have its servers added and started; the service
  /// proposes through them with the standard leader-steering client.
  ConfigService(sim::Rpc* rpc, consensus::PaxosCluster* paxos,
                std::vector<sim::NodeId> paxos_servers);

  /// The network node the service answers Fetch / catch-up reports on.
  sim::NodeId node() const { return node_; }

  /// Claims epoch 1 with `members` through Paxos. Idempotent: if epoch 1
  /// was already chosen (service restart, racing bootstrap), adopts the
  /// chosen view instead.
  void Bootstrap(std::vector<sim::NodeId> members, DoneCallback done);

  /// True while a proposal or prepared-but-uncommitted view is in flight.
  /// At most one reconfiguration runs at a time; callers must check this
  /// before proposing.
  bool ReconfigInProgress() const {
    return proposing_ || prepared_.has_value();
  }

  const MembershipView& committed() const { return committed_; }
  const std::optional<MembershipView>& prepared() const { return prepared_; }

  /// Proposes epoch committed+1 with `node` added / removed. Returns
  /// immediately with FailedPrecondition when a reconfiguration is already
  /// in flight or the delta is vacuous; otherwise `done` fires once the
  /// view is PREPARED (commit follows asynchronously after catch-up).
  [[nodiscard]] Status ProposeJoin(sim::NodeId node, DoneCallback done);
  [[nodiscard]] Status ProposeLeave(sim::NodeId node, DoneCallback done);

  /// Registers `handler` to run on `node` whenever a view push lands there.
  /// Push delivery rides the simulated network: a crashed or partitioned
  /// subscriber simply misses the push and must Fetch (pull) later.
  void Subscribe(sim::NodeId node, ViewHandler handler);

  /// Pulls the current ViewState over the network from `from`.
  void Fetch(sim::NodeId from, std::function<void(Result<ViewState>)> done);

  /// Reports (over the network, from `reporter`) that the reporter finished
  /// catch-up for prepared epoch `epoch`. `done` receives the service ack.
  void ReportCatchUp(sim::NodeId reporter, uint64_t epoch, DoneCallback done);

  const ConfigStats& stats() const { return stats_; }

 private:
  struct CatchUpReq {
    uint64_t epoch = 0;
  };

  void ProposeView(MembershipView view, DoneCallback done);
  void StartCommit();
  void Broadcast();
  ViewState Snapshot() const;
  obs::MetricsRegistry& Obs();

  sim::Rpc* rpc_;
  sim::NodeId node_ = 0;
  std::unique_ptr<consensus::PaxosKvClient> client_;
  sim::MethodId m_fetch_ = 0;
  sim::MethodId m_report_ = 0;
  sim::MsgType t_view_ = 0;

  MembershipView committed_;
  std::optional<MembershipView> prepared_;
  bool proposing_ = false;
  bool committing_ = false;
  /// Catch-up bookkeeping for the prepared epoch: old ∪ new members must
  /// report before commit (or the timeout fires).
  std::set<sim::NodeId> required_reports_;
  std::set<sim::NodeId> received_reports_;
  /// Ordered by node id: broadcast fan-out order is deterministic.
  std::map<sim::NodeId, ViewHandler> subscribers_;
  ConfigStats stats_;
};

}  // namespace evc::membership

#endif  // EVC_MEMBERSHIP_CONFIG_SERVICE_H_

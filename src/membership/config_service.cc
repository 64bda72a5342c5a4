#include "membership/config_service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace evc::membership {

namespace {

// Config KV layout inside the Paxos state machine: "m/<epoch>" holds the
// encoded view claimed for that epoch (kPutIfAbsent — first writer wins),
// "c" holds the encoded view of the highest committed epoch.
std::string EpochKey(uint64_t epoch) {
  return "m/" + std::to_string(epoch);
}
constexpr char kCommitKey[] = "c";

// How long a prepared view may wait for catch-up reports before the service
// commits anyway. Catch-up normally completes in well under a second; the
// timeout only matters when a reporter crashed mid-stream (its durable data
// survives and anti-entropy repairs the remainder).
constexpr sim::Time kCatchUpTimeout = 10 * sim::kSecond;
// Timeout for subscriber-issued Fetch / catch-up report RPCs.
constexpr sim::Time kRpcTimeout = 500 * sim::kMillisecond;

}  // namespace

ConfigService::ConfigService(sim::Rpc* rpc, consensus::PaxosCluster* paxos,
                             std::vector<sim::NodeId> paxos_servers)
    : rpc_(rpc) {
  node_ = rpc_->network()->AddNode();
  client_ = std::make_unique<consensus::PaxosKvClient>(
      paxos, rpc_->simulator(), node_, std::move(paxos_servers));
  m_fetch_ = rpc_->InternMethod("cfg.fetch");
  m_report_ = rpc_->InternMethod("cfg.caughtup");
  t_view_ = rpc_->network()->InternType("cfg.view");

  rpc_->RegisterHandler(
      node_, m_fetch_,
      [this](sim::NodeId, sim::Payload, sim::RpcResponder respond) {
        respond(Snapshot());
      });
  rpc_->RegisterHandler(
      node_, m_report_,
      [this](sim::NodeId from, sim::Payload request,
             sim::RpcResponder respond) {
        const auto req = std::move(request).Take<CatchUpReq>();
        ++stats_.catch_up_reports;
        Obs().CounterFor("cfg.catchup_reports").Inc();
        if (prepared_.has_value() && req.epoch == prepared_->epoch &&
            !committing_) {
          received_reports_.insert(from);
          bool all = true;
          for (sim::NodeId need : required_reports_) {
            if (received_reports_.count(need) == 0) {
              all = false;
              break;
            }
          }
          if (all) StartCommit();
        }
        respond(true);
      });
}

obs::MetricsRegistry& ConfigService::Obs() {
  return rpc_->simulator()->metrics().global();
}

ViewState ConfigService::Snapshot() const {
  ViewState state;
  state.committed = committed_;
  state.has_prepared = prepared_.has_value();
  if (prepared_.has_value()) state.prepared = *prepared_;
  return state;
}

void ConfigService::Bootstrap(std::vector<sim::NodeId> members,
                              DoneCallback done) {
  MembershipView view;
  view.epoch = 1;
  view.members = std::move(members);
  std::sort(view.members.begin(), view.members.end());
  consensus::Command cmd;
  cmd.type = consensus::Command::Type::kPutIfAbsent;
  cmd.key = EpochKey(1);
  cmd.value = view.Encode();
  client_->Execute(
      std::move(cmd),
      [this, view, done](Result<consensus::Execution> r) mutable {
        if (!r.ok()) {
          done(r.status());
          return;
        }
        if (r->found) {
          // Epoch 1 already chosen (e.g. a racing bootstrap): adopt it.
          auto chosen = MembershipView::Decode(r->value);
          if (!chosen.ok()) {
            done(chosen.status());
            return;
          }
          view = *chosen;
        }
        committed_ = std::move(view);
        Broadcast();
        done(Status::OK());
      });
}

Status ConfigService::ProposeJoin(sim::NodeId node, DoneCallback done) {
  if (ReconfigInProgress()) {
    return Status::FailedPrecondition("reconfiguration in flight");
  }
  if (committed_.epoch == 0) {
    return Status::FailedPrecondition("not bootstrapped");
  }
  if (committed_.Contains(node)) {
    return Status::InvalidArgument("node already a member");
  }
  MembershipView view;
  view.epoch = committed_.epoch + 1;
  view.members = committed_.members;
  view.members.push_back(node);
  std::sort(view.members.begin(), view.members.end());
  ProposeView(std::move(view), std::move(done));
  return Status::OK();
}

Status ConfigService::ProposeLeave(sim::NodeId node, DoneCallback done) {
  if (ReconfigInProgress()) {
    return Status::FailedPrecondition("reconfiguration in flight");
  }
  if (!committed_.Contains(node)) {
    return Status::InvalidArgument("node is not a member");
  }
  if (committed_.members.size() <= 1) {
    return Status::FailedPrecondition("cannot remove the last member");
  }
  MembershipView view;
  view.epoch = committed_.epoch + 1;
  view.members = committed_.members;
  view.members.erase(
      std::remove(view.members.begin(), view.members.end(), node),
      view.members.end());
  ProposeView(std::move(view), std::move(done));
  return Status::OK();
}

void ConfigService::ProposeView(MembershipView view, DoneCallback done) {
  proposing_ = true;
  consensus::Command cmd;
  cmd.type = consensus::Command::Type::kPutIfAbsent;
  cmd.key = EpochKey(view.epoch);
  cmd.value = view.Encode();
  client_->Execute(
      std::move(cmd),
      [this, view, done](Result<consensus::Execution> r) {
        proposing_ = false;
        if (!r.ok()) {
          done(r.status());
          return;
        }
        if (r->found) {
          // Single-proposer service: losing the epoch claim means a
          // concurrent proposer exists (or a stale retry resurfaced).
          // Surface it rather than adopting a view we did not build.
          done(Status::Aborted("epoch already claimed"));
          return;
        }
        ++stats_.reconfigs_proposed;
        Obs().CounterFor("cfg.reconfigs_proposed").Inc();
        prepared_ = view;
        committing_ = false;
        received_reports_.clear();
        required_reports_.clear();
        for (sim::NodeId m : committed_.members) required_reports_.insert(m);
        for (sim::NodeId m : view.members) required_reports_.insert(m);
        Broadcast();
        // Conservative fallback: commit even if some reporter never shows
        // up (crashed mid-stream; anti-entropy repairs the remainder).
        const uint64_t epoch = view.epoch;
        rpc_->simulator()->ScheduleAfter(
            kCatchUpTimeout, [this, epoch] {
              if (prepared_.has_value() && prepared_->epoch == epoch &&
                  !committing_) {
                ++stats_.commit_timeouts;
                Obs().CounterFor("cfg.commit_timeouts").Inc();
                StartCommit();
              }
            });
        done(Status::OK());
      });
}

void ConfigService::StartCommit() {
  EVC_CHECK(prepared_.has_value());
  committing_ = true;
  consensus::Command cmd;
  cmd.type = consensus::Command::Type::kPut;
  cmd.key = kCommitKey;
  cmd.value = prepared_->Encode();
  client_->Execute(
      std::move(cmd), [this](Result<consensus::Execution> r) {
        if (!r.ok()) {
          // The commit record MUST eventually be chosen; retry after a
          // beat (the config Paxos group re-elects within ~1s).
          rpc_->simulator()->ScheduleAfter(sim::kSecond, [this] {
            if (prepared_.has_value() && committing_) StartCommit();
          });
          return;
        }
        if (!prepared_.has_value()) return;  // already flipped (late retry)
        committed_ = *prepared_;
        prepared_.reset();
        committing_ = false;
        received_reports_.clear();
        required_reports_.clear();
        ++stats_.commits;
        Obs().CounterFor("cfg.commits").Inc();
        Broadcast();
      });
}

void ConfigService::Subscribe(sim::NodeId node, ViewHandler handler) {
  EVC_CHECK(subscribers_.count(node) == 0);
  subscribers_[node] = std::move(handler);
  rpc_->network()->RegisterHandler(
      node, t_view_, [this, node](sim::Message msg) {
        auto state = std::move(msg.payload).Take<ViewState>();
        auto it = subscribers_.find(node);
        if (it == subscribers_.end()) return;
        std::optional<MembershipView> prepared;
        if (state.has_prepared) prepared = std::move(state.prepared);
        it->second(state.committed, prepared);
      });
}

void ConfigService::Broadcast() {
  for (const auto& [node, handler] : subscribers_) {
    (void)handler;
    rpc_->network()->Send(node_, node, t_view_, Snapshot());
    ++stats_.view_broadcasts;
  }
  Obs().CounterFor("cfg.view_broadcasts").Inc(subscribers_.size());
}

void ConfigService::Fetch(sim::NodeId from,
                          std::function<void(Result<ViewState>)> done) {
  CatchUpReq req;  // ignored by the handler; any payload works
  rpc_->Call(from, node_, m_fetch_, req, kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
                 return;
               }
               done(std::move(*r).Take<ViewState>());
             });
}

void ConfigService::ReportCatchUp(sim::NodeId reporter, uint64_t epoch,
                                  DoneCallback done) {
  CatchUpReq req;
  req.epoch = epoch;
  rpc_->Call(reporter, node_, m_report_, req, kRpcTimeout,
             [done](Result<sim::Payload> r) { done(r.status()); });
}

}  // namespace evc::membership

#include "consensus/paxos.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <utility>

#include "common/encoding.h"
#include "common/logging.h"

namespace evc::consensus {

namespace {
constexpr char kClientProposal[] = "px.client";
constexpr char kPrepare[] = "px.prepare";
constexpr char kAccept[] = "px.accept";
constexpr char kLearn[] = "px.learn";
constexpr char kHeartbeat[] = "px.heartbeat";
constexpr char kCatchup[] = "px.catchup";

// Acceptor journal record tags (first byte of each WAL record).
constexpr char kWalPromise = 'P';  // [round][node]
constexpr char kWalAccept = 'A';   // [slot][round][node][value]
constexpr char kWalChosen = 'C';   // [slot][value]
// First record after a checkpoint: [round][node][log_start][applied_index]
// [#kv]{[key][value]} [#ops]{[op_id delta]}.
constexpr char kWalSnapshot = 'S';

// Per-phase RPC timeout. Must exceed the worst round trip in the deployment
// (the WAN matrix tops out near 110 ms one-way).
constexpr sim::Time kRpcTimeout = 400 * sim::kMillisecond;
constexpr sim::Time kHeartbeatInterval = 50 * sim::kMillisecond;
// Base election timeout; each follower randomizes in [T, 2T).
constexpr sim::Time kElectionTimeout = 600 * sim::kMillisecond;
// Client-visible proposal timeout.
constexpr sim::Time kProposalTimeout = 2 * sim::kSecond;

void PutBallot(std::string* out, const Ballot& ballot) {
  PutVarint64(out, ballot.round);
  PutVarint64(out, ballot.node);
}

Ballot GetBallot(Decoder* dec) {
  Ballot b;
  uint64_t node = 0;
  EVC_CHECK(dec->GetVarint64(&b.round).ok());
  EVC_CHECK(dec->GetVarint64(&node).ok());
  b.node = static_cast<uint32_t>(node);
  return b;
}

std::string PromiseRecord(const Ballot& ballot) {
  std::string rec(1, kWalPromise);
  PutBallot(&rec, ballot);
  return rec;
}

std::string AcceptRecord(uint64_t slot, const Ballot& ballot,
                         const std::string& value) {
  std::string rec(1, kWalAccept);
  PutVarint64(&rec, slot);
  PutBallot(&rec, ballot);
  PutLengthPrefixed(&rec, value);
  return rec;
}

std::string ChosenRecord(uint64_t slot, const std::string& value) {
  std::string rec(1, kWalChosen);
  PutVarint64(&rec, slot);
  PutLengthPrefixed(&rec, value);
  return rec;
}

// Adds `id` to the sorted `ids`; false when it is already there.
bool InsertOpId(std::vector<uint64_t>* ids, uint64_t id) {
  const auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) return false;
  ids->insert(it, id);
  return true;
}
}  // namespace

PaxosCluster::PaxosCluster(sim::Rpc* rpc, PaxosOptions options)
    : rpc_(rpc),
      options_(options),
      rng_(rpc->simulator()->rng().Fork(0x9a905)),
      c_commands_applied_(&Obs(), "paxos.commands_applied"),
      c_proposals_ok_(&Obs(), "paxos.proposals_ok") {
  EVC_CHECK(rpc_ != nullptr);
  m_client_proposal_ = rpc_->InternMethod(kClientProposal);
  m_prepare_ = rpc_->InternMethod(kPrepare);
  m_accept_ = rpc_->InternMethod(kAccept);
  m_catchup_ = rpc_->InternMethod(kCatchup);
  t_learn_ = rpc_->network()->InternType(kLearn);
  t_heartbeat_ = rpc_->network()->InternType(kHeartbeat);
}

obs::MetricsRegistry& PaxosCluster::Obs() {
  return rpc_->simulator()->metrics().global();
}

PaxosCluster::~PaxosCluster() = default;

sim::NodeId PaxosCluster::AddServer() {
  EVC_CHECK(!started_);
  auto server = std::make_unique<Server>();
  server->node = rpc_->network()->AddNode();
  server->index = static_cast<uint32_t>(servers_.size());
  RegisterHandlers(server.get());
  by_node_[server->node] = server.get();
  crash_registrar_.Register(rpc_->simulator(), server->node, this);
  servers_.push_back(std::move(server));
  return servers_.back()->node;
}

std::vector<sim::NodeId> PaxosCluster::AddServers(int count) {
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < count; ++i) nodes.push_back(AddServer());
  return nodes;
}

PaxosCluster::Server* PaxosCluster::FindServer(sim::NodeId node) {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}
const PaxosCluster::Server* PaxosCluster::FindServer(sim::NodeId node) const {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

std::string PaxosCluster::EncodeCommand(const Command& cmd) {
  std::string out;
  out.push_back(static_cast<char>(cmd.type));
  PutLengthPrefixed(&out, cmd.key);
  PutLengthPrefixed(&out, cmd.value);
  PutVarint64(&out, cmd.op_id);
  return out;
}

Result<Command> PaxosCluster::DecodeCommand(const std::string& bytes) {
  if (bytes.empty()) return Status::Corruption("empty command");
  Command cmd;
  cmd.type = static_cast<Command::Type>(bytes[0]);
  Decoder dec(std::string_view(bytes).substr(1));
  EVC_RETURN_IF_ERROR(dec.GetLengthPrefixed(&cmd.key));
  EVC_RETURN_IF_ERROR(dec.GetLengthPrefixed(&cmd.value));
  EVC_RETURN_IF_ERROR(dec.GetVarint64(&cmd.op_id));
  return cmd;
}

void PaxosCluster::RegisterHandlers(Server* server) {
  const sim::NodeId node = server->node;

  rpc_->RegisterHandler(
      node, m_prepare_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto prepare = std::move(req).Take<PrepareReq>();
        PrepareReply reply;
        if (prepare.ballot > server->promised) {
          server->promised = prepare.ballot;
          // Journal before the ack leaves: a restarted acceptor must still
          // honor this promise or two leaders can both reach majority.
          Journal(server, PromiseRecord(server->promised));
          reply.promised = true;
          for (auto it = server->slots.lower_bound(prepare.from_slot);
               it != server->slots.end(); ++it) {
            const auto& [slot, state] = *it;
            if (state.chosen) {
              reply.chosen.emplace_back(slot, state.chosen_value);
            } else if (state.has_accepted) {
              reply.accepted.emplace_back(slot, state.accepted_ballot,
                                          state.accepted_value);
            }
          }
        }
        reply.promised_ballot = server->promised;
        reply.log_start = server->log_start;
        respond(std::move(reply));
      });

  rpc_->RegisterHandler(
      node, m_accept_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto accept = std::move(req).Take<AcceptReq>();
        AcceptReply reply;
        if (accept.ballot >= server->promised) {
          server->promised = accept.ballot;
          if (SlotState* state = OpenSlot(server, accept.slot)) {
            state->accepted_ballot = accept.ballot;
            state->accepted_value = accept.value;
            state->has_accepted = true;
            Journal(server, AcceptRecord(accept.slot, accept.ballot,
                                         accept.value));
          } else {
            // Nothing accepted, but the promise still advanced.
            Journal(server, PromiseRecord(server->promised));
          }
          reply.accepted = true;
        } else {
          // Ballot conflict: a competing (would-be) leader holds a higher
          // promise at this acceptor.
          Obs().CounterFor("paxos.accept_conflicts").Inc();
        }
        reply.promised_ballot = server->promised;
        reply.applied_index = server->applied_index;
        respond(reply);
      });

  rpc_->network()->RegisterHandler(node, t_learn_, [this,
                                                  server](sim::Message msg) {
    auto learn = std::move(msg.payload).Take<LearnMsg>();
    OnChosen(server, learn.slot, learn.value);
  });

  rpc_->network()->RegisterHandler(
      node, t_heartbeat_, [this, server](sim::Message msg) {
        auto hb = std::move(msg.payload).Take<HeartbeatMsg>();
        // Even a deposed leader's floor is a lower bound.
        server->group_floor = std::max(server->group_floor, hb.group_floor);
        if (hb.ballot >= server->leader_ballot) {
          server->leader_ballot = hb.ballot;
          server->leader_hint = hb.leader;
          server->has_leader_hint = true;
          server->last_heartbeat = rpc_->simulator()->Now();
          if (server->is_leader && hb.ballot > server->ballot) {
            StepDown(server, hb.ballot);
          }
          // Catch up if the leader has chosen entries we lack.
          const uint64_t my_watermark = server->applied_index;
          if (hb.chosen_watermark > my_watermark &&
              hb.leader != server->node) {
            ++stats_.catchups;
            Obs().CounterFor("paxos.catchups").Inc();
            CatchupReq req{my_watermark};
            rpc_->Call(server->node, hb.leader, m_catchup_, req,
                       4 * kRpcTimeout,
                       [this, server](Result<sim::Payload> r) {
                         if (!r.ok()) return;
                         auto reply = std::move(r).value().Take<CatchupReply>();
                         // The responder dropped only slots below the group
                         // floor, which this server had applied before it
                         // reported the index the floor came from.
                         EVC_CHECK(reply.log_start <= server->applied_index);
                         for (const auto& [slot, value] : reply.chosen) {
                           OnChosen(server, slot, value);
                         }
                       });
          }
        }
      });

  rpc_->RegisterHandler(
      node, m_catchup_,
      [server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto catchup = std::move(req).Take<CatchupReq>();
        CatchupReply reply;
        for (auto it = server->slots.lower_bound(catchup.from_slot);
             it != server->slots.end(); ++it) {
          if (it->second.chosen) {
            reply.chosen.emplace_back(it->first, it->second.chosen_value);
          }
        }
        reply.log_start = server->log_start;
        respond(std::move(reply));
      });

  rpc_->RegisterHandler(
      node, m_client_proposal_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto cmd = std::move(req).Take<Command>();
        if (!server->is_leader) {
          std::string hint = "not leader";
          if (server->has_leader_hint) {
            hint += "; hint=" + std::to_string(server->leader_hint);
          }
          respond(Status::FailedPrecondition(hint));
          return;
        }
        auto pending = std::make_shared<PendingProposal>();
        pending->slot = server->next_slot++;
        pending->encoded = EncodeCommand(cmd);
        pending->op_id = cmd.op_id;
        pending->done = [respond](Result<Execution> r) {
          if (r.ok()) {
            respond(std::move(r).value());
          } else {
            respond(r.status());
          }
        };
        server->in_flight[pending->slot] = pending;
        // Proposal-level timeout.
        pending->timeout_event = rpc_->simulator()->ScheduleAfter(
            kProposalTimeout, [this, server, pending] {
              if (pending->decided) return;
              pending->decided = true;
              server->in_flight.erase(pending->slot);
              ++stats_.proposals_failed;
              Obs().CounterFor("paxos.proposals_failed").Inc();
              pending->done(Status::TimedOut("proposal timed out"));
            });
        ProposeInSlot(server, pending->slot, pending->encoded, pending);
      });
}

void PaxosCluster::Start() {
  started_ = true;
  sim::Simulator* sim = rpc_->simulator();
  for (auto& server_ptr : servers_) {
    Server* server = server_ptr.get();
    server->last_heartbeat = sim->Now();
    server->peer_applied.assign(servers_.size(), std::nullopt);
    ScheduleElectionCheck(server);
  }
  // Bootstrap: server 0 runs for leadership immediately.
  sim->ScheduleAfter(1, [this] { StartElection(servers_[0].get()); });
}

void PaxosCluster::ScheduleElectionCheck(Server* server) {
  sim::Simulator* sim = rpc_->simulator();
  const sim::Time jitter = static_cast<sim::Time>(
      rng_.NextBounded(static_cast<uint64_t>(kElectionTimeout)));
  sim->ScheduleAfter(kElectionTimeout + jitter, [this, server] {
    sim::Simulator* sim2 = rpc_->simulator();
    if (rpc_->network()->IsNodeUp(server->node) && !server->is_leader &&
        !server->electing &&
        sim2->Now() - server->last_heartbeat > kElectionTimeout) {
      StartElection(server);
    }
    ScheduleElectionCheck(server);
  });
}

void PaxosCluster::StartElection(Server* server) {
  if (!rpc_->network()->IsNodeUp(server->node)) return;
  server->electing = true;
  ++stats_.elections_started;
  Obs().CounterFor("paxos.elections").Inc();
  const uint64_t round =
      std::max({server->promised.round, server->ballot.round,
                server->leader_ballot.round}) +
      1;
  server->ballot = Ballot{round, server->index};
  const uint64_t from_slot = server->applied_index;

  struct ElectionState {
    std::vector<PrepareReply> promises;
    int replies = 0;
    bool done = false;
    Ballot ballot;
  };
  auto state = std::make_shared<ElectionState>();
  state->ballot = server->ballot;
  const int total = static_cast<int>(servers_.size());
  const int majority = total / 2 + 1;

  PrepareReq req{server->ballot, from_slot};
  for (auto& peer : servers_) {
    rpc_->Call(
        server->node, peer->node, m_prepare_, req, kRpcTimeout,
        [this, server, state, majority, total, from_slot](
            Result<sim::Payload> r) {
          ++state->replies;
          if (state->done) return;
          // A newer election at this server supersedes this one.
          if (server->ballot != state->ballot) {
            state->done = true;
            return;
          }
          if (r.ok()) {
            auto reply = std::move(r).value().Take<PrepareReply>();
            if (reply.promised) {
              state->promises.push_back(std::move(reply));
            } else if (reply.promised_ballot > server->ballot) {
              // Lost to a higher ballot: abandon.
              state->done = true;
              server->electing = false;
              return;
            }
          }
          if (static_cast<int>(state->promises.size()) >= majority) {
            state->done = true;
            BecomeLeader(server, state->promises, from_slot);
          } else if (state->replies == total) {
            state->done = true;
            server->electing = false;  // retry on next election check
          }
        });
  }
}

void PaxosCluster::BecomeLeader(Server* server,
                                const std::vector<PrepareReply>& promises,
                                uint64_t from_slot) {
  server->is_leader = true;
  server->electing = false;
  server->has_leader_hint = true;
  server->leader_hint = server->node;
  server->leader_ballot = server->ballot;
  ++stats_.leaderships_won;
  Obs().CounterFor("paxos.leaderships_won").Inc();

  // Adopt chosen entries and the highest-ballot accepted value per open slot.
  std::map<uint64_t, std::pair<Ballot, std::string>> open;
  uint64_t max_slot_seen = from_slot == 0 ? 0 : from_slot - 1;
  bool any_slot = from_slot > 0;
  for (const auto& promise : promises) {
    // As for catch-up: every slot an acceptor dropped is applied here.
    EVC_CHECK(promise.log_start <= server->applied_index);
    for (const auto& [slot, value] : promise.chosen) {
      OnChosen(server, slot, value);
      max_slot_seen = std::max(max_slot_seen, slot);
      any_slot = true;
    }
    for (const auto& [slot, ballot, value] : promise.accepted) {
      auto it = open.find(slot);
      if (it == open.end() || ballot > it->second.first) {
        open[slot] = {ballot, value};
      }
      max_slot_seen = std::max(max_slot_seen, slot);
      any_slot = true;
    }
  }
  server->next_slot = any_slot ? max_slot_seen + 1 : from_slot;

  // Re-propose open values; fill holes with no-ops so the log has no gaps.
  for (uint64_t slot = server->applied_index; slot < server->next_slot;
       ++slot) {
    if (IsChosen(*server, slot)) continue;
    std::string value;
    auto it = open.find(slot);
    if (it != open.end()) {
      value = it->second.second;
    } else {
      Command noop;
      noop.type = Command::Type::kNoop;
      value = EncodeCommand(noop);
    }
    ProposeInSlot(server, slot, value, nullptr);
  }

  SendHeartbeats(server);
}

void PaxosCluster::SendHeartbeats(Server* server) {
  if (!server->is_leader || !rpc_->network()->IsNodeUp(server->node)) return;
  HeartbeatMsg hb;
  hb.ballot = server->ballot;
  hb.leader = server->node;
  hb.chosen_watermark = server->applied_index;
  hb.group_floor = GroupFloor(*server);
  server->group_floor = std::max(server->group_floor, hb.group_floor);
  for (auto& peer : servers_) {
    if (peer->node == server->node) continue;
    rpc_->network()->Send(server->node, peer->node, t_heartbeat_, hb);
  }
  server->last_heartbeat = rpc_->simulator()->Now();
  rpc_->simulator()->ScheduleAfter(kHeartbeatInterval,
                                   [this, server] { SendHeartbeats(server); });
}

uint64_t PaxosCluster::GroupFloor(const Server& leader) const {
  uint64_t floor = leader.applied_index;
  for (const auto& peer : servers_) {
    if (peer->index == leader.index) continue;
    const std::optional<uint64_t>& reported = leader.peer_applied[peer->index];
    if (!reported) return 0;
    floor = std::min(floor, *reported);
  }
  return floor;
}

bool PaxosCluster::IsChosen(const Server& server, uint64_t slot) {
  if (slot < server.log_start) return true;
  auto it = server.slots.find(slot);
  return it != server.slots.end() && it->second.chosen;
}

PaxosCluster::SlotState* PaxosCluster::OpenSlot(Server* server,
                                                uint64_t slot) {
  if (slot < server->log_start) return nullptr;
  SlotState& state = server->slots[slot];
  return state.chosen ? nullptr : &state;
}

void PaxosCluster::ProposeInSlot(Server* server, uint64_t slot,
                                 std::string encoded,
                                 std::shared_ptr<PendingProposal> pending) {
  // If we have already promised a higher ballot, we are deposed: accepting
  // our own proposal would break the promise (and Paxos safety).
  if (server->ballot < server->promised) {
    StepDown(server, server->promised);  // fails `pending` via in_flight
    return;
  }
  // Leader accepts locally first (it is an acceptor too).
  if (SlotState* local = OpenSlot(server, slot)) {
    local->accepted_ballot = server->ballot;
    local->accepted_value = encoded;
    local->has_accepted = true;
    Journal(server, AcceptRecord(slot, server->ballot, encoded));
  }
  if (server->promised < server->ballot) {
    server->promised = server->ballot;
    Journal(server, PromiseRecord(server->promised));
  }

  struct AcceptState {
    int acks = 1;  // self
    int replies = 1;
    bool done = false;
  };
  auto state = std::make_shared<AcceptState>();
  const int total = static_cast<int>(servers_.size());
  const int majority = total / 2 + 1;
  const Ballot ballot = server->ballot;

  if (state->acks >= majority) {
    state->done = true;
    OnChosen(server, slot, encoded);
    return;  // single-node cluster
  }

  AcceptReq req{ballot, slot, encoded};
  for (auto& peer : servers_) {
    if (peer->node == server->node) continue;
    rpc_->Call(server->node, peer->node, m_accept_, req, kRpcTimeout,
               [this, server, state, majority, total, slot, encoded, ballot,
                pending, peer_index = peer->index](Result<sim::Payload> r) {
                 ++state->replies;
                 std::optional<AcceptReply> reply;
                 if (r.ok()) {
                   reply = std::move(r).value().Take<AcceptReply>();
                   // Late replies report too: applied indices only grow,
                   // so every report stays a lower bound.
                   std::optional<uint64_t>& known =
                       server->peer_applied[peer_index];
                   known = std::max(known.value_or(0), reply->applied_index);
                 }
                 if (state->done) return;
                 if (reply) {
                   if (reply->accepted) {
                     ++state->acks;
                   } else if (reply->promised_ballot > ballot) {
                     state->done = true;
                     StepDown(server, reply->promised_ballot);
                     return;
                   }
                 }
                 if (state->acks >= majority) {
                   state->done = true;
                   OnChosen(server, slot, encoded);
                   // Spread the decision.
                   LearnMsg learn{slot, encoded};
                   for (auto& p : servers_) {
                     if (p->node != server->node) {
                       rpc_->network()->Send(server->node, p->node, t_learn_,
                                             learn);
                     }
                   }
                 } else if (state->replies == total) {
                   state->done = true;
                   // No majority this round (loss / crashes / partition).
                   // The slot MUST eventually be decided or it becomes a
                   // permanent hole blocking application of every later
                   // slot — the leader re-proposes the same value while it
                   // remains leader. The client-facing proposal timeout
                   // fires independently if this drags on.
                   sim::Simulator* sim = rpc_->simulator();
                   const Ballot my_ballot = server->ballot;
                   sim->ScheduleAfter(
                       100 * sim::kMillisecond,
                       [this, server, slot, encoded, pending, my_ballot] {
                         if (!server->is_leader ||
                             server->ballot != my_ballot) {
                           return;  // deposed: next leader fills the slot
                         }
                         if (IsChosen(*server, slot)) {
                           return;  // a learn already arrived
                         }
                         ProposeInSlot(server, slot, encoded, pending);
                       });
                 }
               });
  }
}

void PaxosCluster::OnChosen(Server* server, uint64_t slot,
                            const std::string& value) {
  if (slot < server->log_start) return;  // chosen, applied and dropped
  SlotState& state = server->slots[slot];
  if (state.chosen) {
    if (state.chosen_value != value) {
      // A slot can only ever be chosen with one value — with journaled
      // acceptors this is a hard invariant. With journaling off and amnesia
      // crashes on, the unsound acceptor genuinely allows it; count the
      // violation (the paxos_amnesia test pins this) and keep the first
      // value so the run can finish.
      if (options_.journal_acceptor_state) {
        EVC_CHECK(state.chosen_value == value);
      }
      ++stats_.chosen_conflicts;
      Obs().CounterFor("paxos.chosen_conflicts").Inc();
    }
    return;
  }
  state.chosen = true;
  state.chosen_value = value;
  Journal(server, ChosenRecord(slot, value));
  ApplyReady(server);
}

void PaxosCluster::ApplyReady(Server* server) {
  for (;;) {
    auto it = server->slots.find(server->applied_index);
    if (it == server->slots.end() || !it->second.chosen) break;
    const uint64_t slot = server->applied_index;
    auto cmd_or = DecodeCommand(it->second.chosen_value);
    EVC_CHECK(cmd_or.ok());
    const Command& cmd = *cmd_or;
    Execution exec;
    exec.slot = slot;
    switch (cmd.type) {
      case Command::Type::kNoop:
        break;
      case Command::Type::kPut:
        if (cmd.op_id == 0 || InsertOpId(&server->applied_ops, cmd.op_id)) {
          server->kv[cmd.key] = cmd.value;
        } else {
          Obs().CounterFor("paxos.dedup_hits").Inc();
        }
        break;
      case Command::Type::kDelete:
        if (cmd.op_id == 0 || InsertOpId(&server->applied_ops, cmd.op_id)) {
          server->kv.erase(cmd.key);
        } else {
          Obs().CounterFor("paxos.dedup_hits").Inc();
        }
        break;
      case Command::Type::kGet: {
        auto kv_it = server->kv.find(cmd.key);
        if (kv_it != server->kv.end()) {
          exec.found = true;
          exec.value = kv_it->second;
        }
        break;
      }
      case Command::Type::kPutIfAbsent: {
        // Conditional create: found=false means this command created the
        // key. A dedup hit means an earlier apply of the SAME op won the
        // race, so a retry must still observe "created".
        auto kv_it = server->kv.find(cmd.key);
        if (cmd.op_id != 0 && std::binary_search(server->applied_ops.begin(),
                                                 server->applied_ops.end(),
                                                 cmd.op_id)) {
          Obs().CounterFor("paxos.dedup_hits").Inc();
          exec.found = false;
          exec.value = cmd.value;
        } else if (kv_it == server->kv.end()) {
          if (cmd.op_id != 0) InsertOpId(&server->applied_ops, cmd.op_id);
          server->kv[cmd.key] = cmd.value;
          exec.found = false;
          exec.value = cmd.value;
        } else {
          exec.found = true;
          exec.value = kv_it->second;
        }
        break;
      }
    }
    ++stats_.commands_applied;
    c_commands_applied_.Inc();
    ++server->applied_index;
    // Complete the client's proposal if this server coordinated it.
    auto pending_it = server->in_flight.find(slot);
    if (pending_it != server->in_flight.end()) {
      auto pending = pending_it->second;
      server->in_flight.erase(pending_it);
      if (!pending->decided) {
        pending->decided = true;
        rpc_->simulator()->Cancel(pending->timeout_event);
        if (pending->op_id == cmd.op_id) {
          ++stats_.proposals_ok;
          c_proposals_ok_.Inc();
          pending->done(exec);
        } else {
          // Another leader filled our slot with a different command.
          ++stats_.proposals_failed;
          Obs().CounterFor("paxos.proposals_failed").Inc();
          pending->done(Status::Aborted("slot taken by another command"));
        }
      }
    }
  }
}

void PaxosCluster::Journal(Server* server, const std::string& record) {
  if (!options_.journal_acceptor_state) return;
  server->wal.Append(record);
  if (server->wal.CheckpointDue()) Checkpoint(server);
}

void PaxosCluster::Checkpoint(Server* server) {
  // Never below the last log start: those slots are gone already.
  const uint64_t keep_from =
      std::max(server->log_start,
               std::min(server->applied_index, server->group_floor));
  std::string snap(1, kWalSnapshot);
  snap.reserve(server->wal.base_bytes());  // about the last snapshot's size
  PutBallot(&snap, server->promised);
  PutVarint64(&snap, keep_from);
  PutVarint64(&snap, server->applied_index);
  PutVarint64(&snap, server->kv.size());
  for (const auto& [key, value] : server->kv) {
    PutLengthPrefixed(&snap, key);
    PutLengthPrefixed(&snap, value);
  }
  PutVarint64(&snap, server->applied_ops.size());
  uint64_t prev_op = 0;
  for (const uint64_t op : server->applied_ops) {
    PutVarint64(&snap, op - prev_op);
    prev_op = op;
  }
  WriteAheadLog log;
  log.Append(snap);
  const auto kept = server->slots.lower_bound(keep_from);
  const auto dropped =
      static_cast<uint64_t>(std::distance(server->slots.begin(), kept));
  server->slots.erase(server->slots.begin(), kept);
  server->log_start = keep_from;
  // The chosen slots in [keep_from, applied index) keep serving lagging
  // members; the slots above carry the acceptor state Paxos safety needs.
  for (const auto& [slot, state] : server->slots) {
    if (state.chosen) {
      log.Append(ChosenRecord(slot, state.chosen_value));
    } else if (state.has_accepted) {
      log.Append(AcceptRecord(slot, state.accepted_ballot,
                              state.accepted_value));
    }
  }
  server->wal.Checkpoint(std::move(log));
  Obs().CounterFor("wal.checkpoints").Inc();
  if (dropped > 0) Obs().CounterFor("paxos.slots_dropped").Inc(dropped);
}

void PaxosCluster::OnCrash(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  // Account for everything volatile that evaporates.
  uint64_t dropped = 0;
  for (const auto& [slot, state] : server->slots) {
    dropped += state.accepted_value.size() + state.chosen_value.size();
  }
  for (const auto& [key, value] : server->kv) {
    dropped += key.size() + value.size();
  }
  Obs().CounterFor("crash.state_dropped_bytes").Inc(dropped);
  // Neutralize in-flight proposal state. Do NOT invoke the callbacks: the
  // coordinator just lost power, so its client's RPC times out naturally.
  for (auto& [slot, pending] : server->in_flight) {
    if (!pending->decided) {
      pending->decided = true;
      rpc_->simulator()->Cancel(pending->timeout_event);
    }
  }
  server->in_flight.clear();
  server->promised = Ballot{};
  server->slots.clear();
  server->log_start = 0;
  server->group_floor = 0;
  server->peer_applied.assign(servers_.size(), std::nullopt);
  server->applied_index = 0;
  server->kv.clear();
  server->applied_ops.clear();
  server->is_leader = false;
  server->electing = false;
  server->ballot = Ballot{};
  server->next_slot = 0;
  server->leader_ballot = Ballot{};
  server->leader_hint = 0;
  server->has_leader_hint = false;
}

void PaxosCluster::OnRestart(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  std::vector<std::string> records;
  uint64_t valid_prefix = 0;
  EVC_CHECK(server->wal.ReadAll(&records, &valid_prefix).ok());
  server->wal.TruncateTo(valid_prefix);
  for (const std::string& rec : records) {
    EVC_CHECK(!rec.empty());
    Decoder dec(std::string_view(rec).substr(1));
    switch (rec[0]) {
      case kWalSnapshot: {
        // Only ever the first record, so it fills what the crash cleared.
        server->promised = GetBallot(&dec);
        EVC_CHECK(dec.GetVarint64(&server->log_start).ok());
        EVC_CHECK(dec.GetVarint64(&server->applied_index).ok());
        uint64_t n = 0;
        EVC_CHECK(dec.GetVarint64(&n).ok());
        for (uint64_t i = 0; i < n; ++i) {
          std::string key;
          std::string value;
          EVC_CHECK(dec.GetLengthPrefixed(&key).ok());
          EVC_CHECK(dec.GetLengthPrefixed(&value).ok());
          server->kv.emplace_hint(server->kv.end(), std::move(key),
                                  std::move(value));
        }
        EVC_CHECK(dec.GetVarint64(&n).ok());
        uint64_t op = 0;
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t delta = 0;
          EVC_CHECK(dec.GetVarint64(&delta).ok());
          op += delta;
          server->applied_ops.push_back(op);
        }
        Obs().CounterFor("paxos.snapshots_replayed").Inc();
        break;
      }
      case kWalPromise: {
        const Ballot b = GetBallot(&dec);
        if (b > server->promised) server->promised = b;
        break;
      }
      case kWalAccept: {
        uint64_t slot = 0;
        std::string value;
        EVC_CHECK(dec.GetVarint64(&slot).ok());
        const Ballot b = GetBallot(&dec);
        EVC_CHECK(dec.GetLengthPrefixed(&value).ok());
        SlotState& state = server->slots[slot];
        if (!state.chosen) {
          state.accepted_ballot = b;
          state.accepted_value = std::move(value);
          state.has_accepted = true;
        }
        if (b > server->promised) server->promised = b;
        break;
      }
      case kWalChosen: {
        uint64_t slot = 0;
        std::string value;
        EVC_CHECK(dec.GetVarint64(&slot).ok());
        EVC_CHECK(dec.GetLengthPrefixed(&value).ok());
        SlotState& state = server->slots[slot];
        state.chosen = true;
        state.chosen_value = std::move(value);
        break;
      }
      default:
        EVC_CHECK(false);
    }
  }
  Obs().CounterFor("wal.replayed_records").Inc(records.size());
  // Re-apply the chosen slots after the snapshot's applied index to rebuild
  // the state machine (the op_id dedup set rebuilds with it, so replay
  // stays exactly-once).
  ApplyReady(server);
  // Fresh failure-detection clock: give the incumbent a full election
  // timeout to make contact before this node runs for leadership.
  server->last_heartbeat = rpc_->simulator()->Now();
}

void PaxosCluster::StepDown(Server* server, const Ballot& seen) {
  if (seen > server->leader_ballot) server->leader_ballot = seen;
  if (!server->is_leader && !server->electing) return;
  server->is_leader = false;
  server->electing = false;
  // Fail in-flight proposals; clients retry against the new leader.
  auto in_flight = std::move(server->in_flight);
  server->in_flight.clear();
  for (auto& [slot, pending] : in_flight) {
    if (!pending->decided) {
      pending->decided = true;
      rpc_->simulator()->Cancel(pending->timeout_event);
      ++stats_.proposals_failed;
      Obs().CounterFor("paxos.proposals_failed").Inc();
      pending->done(Status::Aborted("leadership lost"));
    }
  }
}

void PaxosCluster::Propose(sim::NodeId client, sim::NodeId server,
                           Command command, ProposeCallback done) {
  if (command.op_id == 0) command.op_id = next_op_id_++;
  rpc_->Call(client, server, m_client_proposal_, std::move(command),
             kProposalTimeout + 4 * kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<Execution>());
               }
             });
}

bool PaxosCluster::IsLeader(sim::NodeId node) const {
  const Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  return server->is_leader;
}

std::optional<sim::NodeId> PaxosCluster::CurrentLeader() const {
  for (const auto& server : servers_) {
    if (server->is_leader && rpc_->network()->IsNodeUp(server->node)) {
      return server->node;
    }
  }
  return std::nullopt;
}

std::optional<std::string> PaxosCluster::ChosenAt(sim::NodeId node,
                                                  uint64_t slot) const {
  const Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  auto it = server->slots.find(slot);
  if (it == server->slots.end() || !it->second.chosen) return std::nullopt;
  return it->second.chosen_value;
}

std::optional<std::string> PaxosCluster::AppliedValue(
    sim::NodeId node, const std::string& key) const {
  const Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  auto it = server->kv.find(key);
  if (it == server->kv.end()) return std::nullopt;
  return it->second;
}

uint64_t PaxosCluster::AppliedIndex(sim::NodeId node) const {
  const Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  return server->applied_index;
}

const std::vector<uint64_t>& PaxosCluster::AppliedOpIds(
    sim::NodeId node) const {
  const Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  return server->applied_ops;
}

// ---------------------------------------------------------------------------
// PaxosKvClient
// ---------------------------------------------------------------------------

PaxosKvClient::PaxosKvClient(PaxosCluster* cluster, sim::Simulator* sim,
                             sim::NodeId client_node,
                             std::vector<sim::NodeId> servers)
    : cluster_(cluster),
      sim_(sim),
      client_node_(client_node),
      servers_(std::move(servers)),
      detector_(resilience::DetectorOptions{}),
      // Seeded from the client's node id so adding client-side resilience
      // leaves every other component's random stream untouched.
      retry_(
          [] {
            resilience::RetryOptions r;
            r.initial_backoff = 50 * sim::kMillisecond;
            r.max_backoff = 800 * sim::kMillisecond;
            r.jitter = 0.3;
            return r;
          }(),
          0xbac0ff5eULL ^
              (uint64_t{client_node} + 1) * 0x9e3779b97f4a7c15ULL) {
  EVC_CHECK(!servers_.empty());
}

size_t PaxosKvClient::PickServer() const {
  for (size_t i = 0; i < servers_.size(); ++i) {
    const size_t idx = (preferred_ + i) % servers_.size();
    if (!detector_.ConsecutiveFailuresExceeded(servers_[idx])) return idx;
  }
  return preferred_ % servers_.size();
}

void PaxosKvClient::Submit(Command cmd, int attempts_left,
                           std::function<void(Result<Execution>)> done) {
  if (attempts_left <= 0) {
    done(Status::Unavailable("paxos retries exhausted"));
    return;
  }
  preferred_ = PickServer();
  const sim::NodeId target = servers_[preferred_ % servers_.size()];
  cluster_->Propose(
      client_node_, target, cmd,
      [this, cmd, target, attempts_left, done](Result<Execution> r) {
        // Any reply — success, NotLeader, app error — proves the server is
        // alive; only silence (timeout) counts against it.
        // The client runs no heartbeat stream, so only the detector's
        // consecutive-failure fallback applies: replies clear it, timeouts
        // feed it (phi over request interarrivals would convict idle peers).
        const bool alive = r.ok() || !r.status().IsTimedOut();
        if (alive) {
          detector_.OnAlive(target);
        } else {
          detector_.OnFailure(target, sim_->Now());
        }
        if (r.ok()) {
          done(std::move(r));
          return;
        }
        const Status& st = r.status();
        if (st.IsFailedPrecondition()) {
          // Follow the leader hint if present, else try the next server.
          const std::string& msg = st.message();
          const size_t pos = msg.find("hint=");
          bool hinted = false;
          if (pos != std::string::npos) {
            const sim::NodeId hint = static_cast<sim::NodeId>(
                std::strtoul(msg.c_str() + pos + 5, nullptr, 10));
            for (size_t i = 0; i < servers_.size(); ++i) {
              if (servers_[i] == hint) {
                preferred_ = i;
                hinted = true;
              }
            }
          }
          if (!hinted) preferred_ = (preferred_ + 1) % servers_.size();
          Submit(cmd, attempts_left - 1, done);
          return;
        }
        // Timeout / abort / unavailable: exponential backoff with jitter,
        // rotate to the next server, retry. The detector marks a silent
        // server so PickServer skips it on the next attempt.
        preferred_ = (preferred_ + 1) % servers_.size();
        const int retry_number = kMaxAttempts - attempts_left + 1;
        sim_->ScheduleAfter(retry_.BackoffBefore(retry_number),
                            [this, cmd, attempts_left, done] {
                              Submit(cmd, attempts_left - 1, done);
                            });
      });
}

void PaxosKvClient::Put(const std::string& key, std::string value,
                        PutCallback done) {
  Command cmd;
  cmd.type = Command::Type::kPut;
  cmd.key = key;
  cmd.value = std::move(value);
  // One id across all retries: a timed-out attempt may still commit, and the
  // state machine must not apply the retry's duplicate on top of it.
  cmd.op_id = cluster_->MintOpId();
  Submit(cmd, kMaxAttempts, [done](Result<Execution> r) {
    if (r.ok()) {
      done(r->slot);
    } else {
      done(r.status());
    }
  });
}

void PaxosKvClient::Get(const std::string& key, GetCallback done) {
  Command cmd;
  cmd.type = Command::Type::kGet;
  cmd.key = key;
  cmd.op_id = cluster_->MintOpId();
  Submit(cmd, kMaxAttempts, [done](Result<Execution> r) {
    if (!r.ok()) {
      done(r.status());
    } else if (!r->found) {
      done(Status::NotFound("key absent at read slot"));
    } else {
      done(r->value);
    }
  });
}

void PaxosKvClient::Execute(Command cmd,
                            std::function<void(Result<Execution>)> done) {
  if (cmd.op_id == 0) cmd.op_id = cluster_->MintOpId();
  Submit(std::move(cmd), kMaxAttempts, std::move(done));
}

}  // namespace evc::consensus

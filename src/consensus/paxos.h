// Multi-Paxos replicated log and a linearizable KV state machine on top.
//
// This is the strong-consistency baseline of the taxonomy (the
// Megastore/Spanner family's core): every operation — including reads — is
// a command agreed on by a majority, applied in slot order at every replica.
// Properties the tests check:
//   * safety: no two replicas ever decide different values for a slot, under
//     message loss, duplication, leader crashes and re-elections;
//   * liveness (partial synchrony): a majority partition keeps committing;
//   * the CAP corollary: a minority partition commits nothing (Fig. 7).
//
// Structure: each server is acceptor + learner + potential leader. Leaders
// run Phase 1 (prepare) once over the open slot range, then Phase 2
// (accept) per command. Heartbeats suppress elections; followers start a
// randomized-timeout election when the leader goes quiet. Chosen entries
// propagate via learn messages, with a catch-up path for gaps.
//
// Bounded state (snapshot plus tail, as in "Paxos Made Live"): when a
// server's acceptor journal is due under the WAL's checkpoint rule, the
// server rewrites it as a snapshot (promised ballot, applied index, kv and
// the op-id dedup set) plus the acceptor state of every slot it keeps. It
// keeps the slots at or above T = min(its applied index, the group floor)
// and drops the rest. The group floor is the smallest applied index any
// member has reported: members report theirs on AcceptReply, the leader
// sends the minimum on heartbeats (0 until every member has replied), and
// each server keeps the largest floor it has heard. A journaled server
// journals a chosen slot before applying it, so applied indices never go
// back and every floor ever sent stays a lower bound: no member ever needs
// a slot another member dropped (prepare and catch-up replies carry the
// responder's log start, and the asker checks it), and no snapshot install
// exists. A slot below a server's log start counts as chosen and applied.
// A member that stays down holds the floor back, so logs keep growing
// while it is away.

#ifndef EVC_CONSENSUS_PAXOS_H_
#define EVC_CONSENSUS_PAXOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "resilience/detector.h"
#include "resilience/retry.h"
#include "sim/rpc.h"
#include "storage/wal.h"

namespace evc::consensus {

/// A Paxos ballot: (round, node) with lexicographic order.
struct Ballot {
  uint64_t round = 0;
  uint32_t node = 0;

  auto operator<=>(const Ballot&) const = default;
  std::string ToString() const {
    return std::to_string(round) + "." + std::to_string(node);
  }
};

/// A state-machine command. Reads go through the log too, which is the
/// simplest way to linearizable reads (no leases needed).
struct Command {
  // kPutIfAbsent is appended so historical encodings keep their type byte.
  enum class Type { kNoop, kPut, kGet, kDelete, kPutIfAbsent };
  Type type = Type::kNoop;
  std::string key;
  std::string value;
  /// Unique id of the logical operation. Retries of the same client op reuse
  /// the id, and the state machine applies each mutating id at most once —
  /// otherwise a timed-out proposal completed later by a new leader plus its
  /// retry would execute the same put twice (a real linearizability
  /// violation the fault fuzzer caught). 0 means "stamp at Propose".
  uint64_t op_id = 0;
};

/// Result of executing a command against the KV state machine.
struct Execution {
  uint64_t slot = 0;
  bool found = false;     ///< kGet/kPutIfAbsent: key already existed
  std::string value;      ///< kGet: the value read; kPutIfAbsent: the winner
};

struct PaxosOptions {
  /// Journal promised/accepted ballots to a per-acceptor WAL before acking
  /// Prepare/Accept. Turning this off under amnesia crashes (sim/nemesis.h)
  /// reproduces the classic unsound acceptor: a restarted node forgets its
  /// promises and can let two different values be chosen for one slot
  /// (pinned by test).
  bool journal_acceptor_state = true;
};

struct PaxosStats {
  uint64_t elections_started = 0;
  uint64_t leaderships_won = 0;
  uint64_t proposals_ok = 0;
  uint64_t proposals_failed = 0;
  uint64_t commands_applied = 0;
  uint64_t catchups = 0;
  /// Slots observed chosen with two different values — impossible when
  /// acceptors journal their state, possible (and counted instead of
  /// crashing) when journal_acceptor_state is off under amnesia crashes.
  uint64_t chosen_conflicts = 0;
};

/// A cluster of Paxos servers with a replicated KV state machine.
class PaxosCluster : private sim::CrashParticipant {
 public:
  PaxosCluster(sim::Rpc* rpc, PaxosOptions options);
  ~PaxosCluster();

  /// Adds a server. Call exactly `n` times before Start().
  sim::NodeId AddServer();
  std::vector<sim::NodeId> AddServers(int count);

  /// Starts heartbeat/election timers. Server 0 attempts leadership first.
  void Start();

  using ProposeCallback = std::function<void(Result<Execution>)>;

  /// Mints a cluster-unique op id. Clients that retry a command must stamp
  /// it once with this and reuse it across attempts (see Command::op_id).
  uint64_t MintOpId() { return next_op_id_++; }

  /// Proposes a command via `server`. Fails with FailedPrecondition (+the
  /// current leader hint in the message) when `server` is not the leader,
  /// or TimedOut when no progress is possible.
  void Propose(sim::NodeId client, sim::NodeId server, Command command,
               ProposeCallback done);

  /// The node currently believing itself leader (0-or-more may transiently
  /// believe so; the log stays safe regardless). Returns nullopt when none.
  std::optional<sim::NodeId> CurrentLeader() const;

  /// True if `server` currently believes itself leader (test hook).
  bool IsLeader(sim::NodeId server) const;

  /// Chosen value in `slot` at `server` (test hook). Empty if not chosen.
  std::optional<std::string> ChosenAt(sim::NodeId server, uint64_t slot) const;

  /// Applied state machine: value of `key` at `server` (test hook).
  std::optional<std::string> AppliedValue(sim::NodeId server,
                                          const std::string& key) const;
  /// Number of contiguously applied slots at `server`.
  uint64_t AppliedIndex(sim::NodeId server) const;
  /// Sorted ids of the mutating ops `server` has applied (test hook): state
  /// machine state, so servers at one applied index agree on it.
  const std::vector<uint64_t>& AppliedOpIds(sim::NodeId server) const;

  const PaxosStats& stats() const { return stats_; }
  size_t server_count() const { return servers_.size(); }

 private:
  struct SlotState {
    Ballot accepted_ballot;
    std::string accepted_value;  // encoded command
    bool has_accepted = false;
    bool chosen = false;
    std::string chosen_value;
  };

  struct PendingProposal {
    uint64_t slot = 0;
    std::string encoded;
    int accept_acks = 0;
    int accept_replies = 0;
    bool decided = false;
    ProposeCallback done;
    uint64_t op_id = 0;
    sim::EventId timeout_event = 0;
  };

  struct Server {
    sim::NodeId node = 0;
    uint32_t index = 0;
    // Acceptor state. Slots below log_start were chosen, applied and
    // dropped by a checkpoint.
    Ballot promised;
    std::map<uint64_t, SlotState> slots;
    uint64_t log_start = 0;
    // Largest group floor heard: no member's applied index is below it.
    uint64_t group_floor = 0;
    // Learner / state machine.
    // Next slot to apply. ApplyReady runs on every choice and after replay,
    // so this is also the chosen watermark (the contiguous chosen prefix).
    uint64_t applied_index = 0;
    std::map<std::string, std::string> kv;
    // Mutating op_ids already applied, sorted. Ids are minted in order and
    // applied close to it, so inserts land near the end.
    std::vector<uint64_t> applied_ops;
    // Leader state.
    bool is_leader = false;
    bool electing = false;
    Ballot ballot;            // my current ballot when leading/electing
    uint64_t next_slot = 0;   // next free slot as leader
    std::map<uint64_t, std::shared_ptr<PendingProposal>> in_flight;
    // Applied index each peer last reported on an AcceptReply, by server
    // index; nullopt until the peer first replies.
    std::vector<std::optional<uint64_t>> peer_applied;
    // Failure detection.
    sim::Time last_heartbeat = 0;
    Ballot leader_ballot;     // highest ballot heard from a leader
    sim::NodeId leader_hint = 0;
    bool has_leader_hint = false;
    // Acceptor journal: an optional snapshot, then promised / accepted /
    // chosen records, replayed on restart (empty when
    // options_.journal_acceptor_state is off).
    WriteAheadLog wal;
  };

  // Message payloads.
  struct PrepareReq {
    Ballot ballot;
    uint64_t from_slot = 0;
  };
  struct PrepareReply {
    bool promised = false;
    Ballot promised_ballot;
    // Accepted entries at/after from_slot: slot -> (ballot, value).
    std::vector<std::tuple<uint64_t, Ballot, std::string>> accepted;
    // Chosen entries the preparer might be missing.
    std::vector<std::pair<uint64_t, std::string>> chosen;
    uint64_t log_start = 0;  // the acceptor's; it reports nothing below it
  };
  struct AcceptReq {
    Ballot ballot;
    uint64_t slot = 0;
    std::string value;
  };
  struct AcceptReply {
    bool accepted = false;
    Ballot promised_ballot;
    uint64_t applied_index = 0;  // the acceptor's, for the group floor
  };
  struct LearnMsg {
    uint64_t slot = 0;
    std::string value;
  };
  struct HeartbeatMsg {
    Ballot ballot;
    sim::NodeId leader = 0;
    uint64_t chosen_watermark = 0;  // leader's contiguous chosen prefix
    uint64_t group_floor = 0;       // see the header comment
  };
  struct CatchupReq {
    uint64_t from_slot = 0;
  };
  struct CatchupReply {
    std::vector<std::pair<uint64_t, std::string>> chosen;
    uint64_t log_start = 0;  // the responder's; it sends nothing below it
  };

  Server* FindServer(sim::NodeId node);
  const Server* FindServer(sim::NodeId node) const;
  /// Global metrics registry of the owning simulator (paxos.* instruments).
  obs::MetricsRegistry& Obs();
  void RegisterHandlers(Server* server);
  void ScheduleElectionCheck(Server* server);
  void StartElection(Server* server);
  void BecomeLeader(Server* server,
                    const std::vector<PrepareReply>& promises,
                    uint64_t from_slot);
  void SendHeartbeats(Server* server);
  /// Leader side: min of its own and every peer's reported applied index,
  /// or 0 while some peer has not reported.
  uint64_t GroupFloor(const Server& leader) const;
  /// True for a chosen slot, including every slot below log_start.
  static bool IsChosen(const Server& server, uint64_t slot);
  /// The state of `slot` while it can still accept a value (creating it);
  /// nullptr once the slot is chosen.
  static SlotState* OpenSlot(Server* server, uint64_t slot);
  void ProposeInSlot(Server* server, uint64_t slot, std::string encoded,
                     std::shared_ptr<PendingProposal> pending);
  void OnChosen(Server* server, uint64_t slot, const std::string& value);
  void ApplyReady(Server* server);
  void StepDown(Server* server, const Ballot& seen);

  // CrashParticipant: amnesia crash drops all volatile server state; restart
  // replays the acceptor journal and re-applies the chosen prefix.
  void OnCrash(uint32_t node) override;
  void OnRestart(uint32_t node) override;
  /// Appends one acceptor record (no-op when journaling is off), then
  /// checkpoints if the journal is due.
  void Journal(Server* server, const std::string& record);
  /// Rewrites the journal as a snapshot plus the kept slots, and drops the
  /// chosen slots below min(applied index, group floor).
  void Checkpoint(Server* server);

  static std::string EncodeCommand(const Command& cmd);
  static Result<Command> DecodeCommand(const std::string& bytes);

  sim::Rpc* rpc_;
  PaxosOptions options_;
  // Pre-interned RPC methods / message types (resolved once in the ctor).
  sim::MethodId m_client_proposal_ = 0;
  sim::MethodId m_prepare_ = 0;
  sim::MethodId m_accept_ = 0;
  sim::MethodId m_catchup_ = 0;
  sim::MsgType t_learn_ = 0;
  sim::MsgType t_heartbeat_ = 0;
  std::vector<std::unique_ptr<Server>> servers_;
  std::map<sim::NodeId, Server*> by_node_;
  PaxosStats stats_;
  sim::CrashRegistrar crash_registrar_;
  Rng rng_;
  uint64_t next_op_id_ = 1;
  bool started_ = false;
  // Counters bumped on every applied command and every decided proposal.
  obs::LazyCounter c_commands_applied_;
  obs::LazyCounter c_proposals_ok_;
};

/// Thin client that tracks the leader hint and retries redirected or
/// timed-out proposals. This is what examples and benches use.
class PaxosKvClient {
 public:
  PaxosKvClient(PaxosCluster* cluster, sim::Simulator* sim,
                sim::NodeId client_node, std::vector<sim::NodeId> servers);

  using PutCallback = std::function<void(Result<uint64_t>)>;  // slot
  using GetCallback = std::function<void(Result<std::string>)>;

  void Put(const std::string& key, std::string value, PutCallback done);
  void Get(const std::string& key, GetCallback done);

  /// Submits an arbitrary command with the full retry/leader-steering logic
  /// behind Put/Get. Stamps op_id when 0 so retries dedup. This is how the
  /// membership config service runs kPutIfAbsent epoch claims through the
  /// consensus group.
  void Execute(Command cmd, std::function<void(Result<Execution>)> done);

 private:
  static constexpr int kMaxAttempts = 10;

  void Submit(Command cmd, int attempts_left,
              std::function<void(Result<Execution>)> done);
  /// First non-suspected server starting at preferred_; falls back to
  /// preferred_ when the detector suspects everyone.
  size_t PickServer() const;

  PaxosCluster* cluster_;
  sim::Simulator* sim_;
  sim::NodeId client_node_;
  std::vector<sim::NodeId> servers_;
  size_t preferred_ = 0;  // index of last known-good server
  uint64_t next_op_ = 1;
  // Client-side resilience: proposal outcomes feed a per-server phi-accrual
  // detector so leader probing skips servers that stopped answering, and
  // retries back off exponentially with jitter instead of a fixed pause.
  resilience::PhiAccrualDetector detector_;
  resilience::RetryPolicy retry_;
};

}  // namespace evc::consensus

#endif  // EVC_CONSENSUS_PAXOS_H_

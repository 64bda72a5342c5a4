// Timeline (primary-copy) consistency, PNUTS-style.
//
// Every key has a master replica; all writes to the key are serialized
// through it, producing a per-key monotonically increasing sequence number —
// the record's "timeline". Replicas apply updates in timeline order, so a
// reader at any replica sees some *prefix-consistent* version (possibly
// stale, never out of order, never a fork). Read levels:
//   * kAny       — local replica's version (fast, possibly stale);
//   * kCritical  — forwarded to the master (read-your-latest, slower);
//   * kAtLeast   — local if fresh enough, else forwarded (the mechanism
//                  behind per-record session guarantees in PNUTS).
// Writes are unavailable when the master is unreachable: per-record CP.
// A record's master is the first server of its ring walk (key hash mod
// server count); nothing migrates it. PNUTS also moves mastership toward a
// record's writers; no experiment here measures that, so the store leaves
// it out.

#ifndef EVC_REPLICATION_TIMELINE_STORE_H_
#define EVC_REPLICATION_TIMELINE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/rpc.h"
#include "storage/wal.h"

namespace evc::repl {

struct TimelineOptions {
  int replication_factor = 3;
  sim::Time rpc_timeout = 250 * sim::kMillisecond;
  /// Journal applied (key, value, seqno) records per server so a crashed
  /// replica recovers its timeline prefix. A non-durable master that
  /// forgets its seqnos would re-mint them and fork the timeline.
  bool durable = true;
};

/// A read result from the timeline store.
struct TimelineRead {
  bool found = false;
  std::string value;
  uint64_t seqno = 0;  ///< position on the record's timeline
  /// kAtLeast only: the MASTER itself served this read with a seqno below
  /// the requested min_seqno. The master is the freshest replica, so the
  /// store cannot do better — but silently returning older data would let a
  /// caller mistake it for a satisfied freshness floor (e.g. after a
  /// non-durable master lost a timeline suffix). Callers decide whether
  /// that is an error.
  bool min_seqno_unmet = false;
};

enum class TimelineReadLevel {
  kAny,       ///< any replica, possibly stale
  kCritical,  ///< up-to-date (served by the master)
  kAtLeast,   ///< any replica at least as fresh as min_seqno
};

struct TimelineStats {
  uint64_t writes_ok = 0;
  uint64_t writes_unavailable = 0;
  uint64_t reads_local = 0;
  uint64_t reads_forwarded = 0;
  /// Locally served reads (kAny, or kAtLeast satisfied by a non-master
  /// replica) older than the master's seqno at serve time. An omniscient-
  /// observer metric: a kAtLeast read at seqno >= min_seqno can still be
  /// behind the master, and the staleness benches must see it.
  uint64_t stale_reads_served = 0;
  uint64_t atleast_unmet = 0;  ///< kAtLeast served by a master below min_seqno
};

/// Cluster of timeline-consistent replicas.
class TimelineCluster : private sim::CrashParticipant {
 public:
  TimelineCluster(sim::Rpc* rpc, TimelineOptions options);
  ~TimelineCluster();

  sim::NodeId AddServer();
  std::vector<sim::NodeId> AddServers(int count);
  size_t server_count() const { return servers_.size(); }
  /// Node ids of every server, in add order.
  std::vector<sim::NodeId> Servers() const;

  /// The master replica for `key`: the first server on its ring walk.
  sim::NodeId MasterOf(const std::string& key) const;
  /// All replicas holding `key`.
  std::vector<sim::NodeId> ReplicasOf(const std::string& key) const;

  using WriteCallback = std::function<void(Result<uint64_t>)>;
  using ReadCallback = std::function<void(Result<TimelineRead>)>;

  /// Writes through the record's master. Succeeds with the new seqno; fails
  /// Unavailable/TimedOut if the master is unreachable.
  void Write(sim::NodeId client, const std::string& key, std::string value,
             WriteCallback done);

  /// Reads from `replica` (a server the client talks to) at `level`.
  /// `min_seqno` applies to kAtLeast only.
  void Read(sim::NodeId client, sim::NodeId replica, const std::string& key,
            TimelineReadLevel level, uint64_t min_seqno, ReadCallback done);

  const TimelineStats& stats() const { return stats_; }

  /// Write gate: invoked on the master, after the master check but BEFORE
  /// the write is applied/replicated/acked. The write proceeds when the gate
  /// calls `release(OK)`; any other status rejects it to the client. The
  /// edge-cache tier installs a gate that revokes (or waits out) every
  /// outstanding lease on the key, so no cached copy can outlive the value
  /// it caches.
  using WriteGate = std::function<void(
      sim::NodeId master, const std::string& key,
      std::function<void(Status)> release)>;
  /// At most one gate; installing replaces the previous one. Pass nullptr
  /// to remove.
  void SetWriteGate(WriteGate gate) { write_gate_ = std::move(gate); }

  /// Synchronous local lookup at `server` (no RPC, no stats): the read path
  /// for a server-side tier co-located with the replica (edge-cache lease
  /// handler). `server` must be a cluster member.
  TimelineRead LocalRecord(sim::NodeId server, const std::string& key);

  /// Test hook: the seqno currently visible for `key` at `server`.
  uint64_t VisibleSeqno(sim::NodeId server, const std::string& key);

  /// Test hook: `server`'s journal (empty when !durable).
  const WriteAheadLog& JournalOf(sim::NodeId server);

 private:
  struct Record {
    std::string value;
    uint64_t seqno = 0;
  };
  struct Server {
    sim::NodeId node = 0;
    std::map<std::string, Record> data;
    // Applied-record journal, replayed on restart (empty when !durable):
    // a snapshot of one record per key, then the records applied since.
    WriteAheadLog wal;
  };
  struct WriteReq {
    std::string key;
    std::string value;
  };
  struct ReplicateMsg {
    std::string key;
    std::string value;
    uint64_t seqno = 0;
  };
  struct ReadReq {
    std::string key;
    uint8_t level = 0;
    uint64_t min_seqno = 0;
  };

  Server* FindServer(sim::NodeId node);
  void RegisterHandlers(Server* server);
  /// Master-side apply: bump the seqno, journal, replicate, ack. Runs after
  /// the write gate (if any) releases the write.
  void ApplyMasterWrite(Server* server, const std::string& key,
                        std::string value, sim::RpcResponder respond);
  /// Global metrics registry of the owning simulator (tl.* instruments).
  obs::MetricsRegistry& Obs();
  void HandleRead(Server* server, const ReadReq& req,
                  sim::RpcResponder respond);

  /// Journals one applied record; called after every data mutation. When
  /// the journal is due (WriteAheadLog::CheckpointDue), rewrites it as one
  /// record per key.
  void JournalApply(Server* server, const std::string& key,
                    const std::string& value, uint64_t seqno);

  // CrashParticipant: crash drops the replica's data map; restart replays
  // the journal in append order (monotone per key, like kReplicate).
  void OnCrash(uint32_t node) override;
  void OnRestart(uint32_t node) override;

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_write_ = 0;
  sim::MethodId m_read_ = 0;
  sim::MsgType t_replicate_ = 0;
  TimelineOptions options_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::map<sim::NodeId, Server*> by_node_;
  WriteGate write_gate_;
  TimelineStats stats_;
  sim::CrashRegistrar crash_registrar_;
  // Counters bumped on every write and every local read.
  obs::LazyCounter c_writes_ok_;
  obs::LazyCounter c_reads_local_;
};

}  // namespace evc::repl

#endif  // EVC_REPLICATION_TIMELINE_STORE_H_

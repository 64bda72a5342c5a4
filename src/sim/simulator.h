// Deterministic discrete-event simulator.
//
// All protocol experiments in evc run on virtual time: events are closures
// scheduled at microsecond-granularity timestamps and executed in (time,
// insertion-order) sequence, so two runs with the same seed are bitwise
// identical. This replaces the real geo-distributed testbeds used by the
// systems the tutorial surveys (see DESIGN.md, substitution table).
//
// The scheduler is an indexed 4-ary min-heap (sim/event_queue.h) with
// slab-backed event closures. It runs events in strict (when, seq) order
// with seq assigned at schedule time, so same-time events are FIFO.
// EventIds are opaque and always nonzero, preserving callers' `id == 0`
// "no event" sentinels. Behaviour is pinned byte for byte by the golden
// export digests (tests/golden_digest_test.cc); event_queue_test checks the
// queue against a naive sorted model.

#ifndef EVC_SIM_SIMULATOR_H_
#define EVC_SIM_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/slab.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace evc::sim {

/// Virtual time in microseconds since simulation start.
using Time = int64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

/// Identifies a scheduled event so it can be cancelled (e.g. RPC timeout
/// timers cancelled when the reply arrives). Always nonzero; callers use 0
/// as a "no event" sentinel.
using EventId = uint64_t;

/// Interface for components that own per-node state with crash semantics.
/// When the fault layer crashes a node it calls OnCrash (drop everything
/// volatile: caches, buffers, in-memory indexes); when the node restarts it
/// calls OnRestart (rebuild state from whatever the component journaled —
/// e.g. WAL replay). A component registers once per node it hosts state for;
/// notifications arrive only for that node. Node ids are the raw uint32
/// underlying NodeId (the typedef lives in latency.h, above this header).
class CrashParticipant {
 public:
  virtual ~CrashParticipant() = default;
  /// The node lost power: volatile state is gone. Must not send messages.
  virtual void OnCrash(uint32_t node) = 0;
  /// The node restarted: recover from durable state. Runs before the
  /// network marks the node up, so recovery must not rely on messaging.
  virtual void OnRestart(uint32_t node) = 0;
};

/// Single-threaded discrete-event executor with a virtual clock.
class Simulator {
 public:
  /// `seed` drives the simulator-owned RNG; forked per component.
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time Now() const { return now_; }

  /// Schedules `fn` (any nullary callable, move-only captures allowed) to
  /// run at absolute virtual time `when` (>= Now()). Returns a nonzero id
  /// usable with Cancel().
  template <typename F>
  EventId ScheduleAt(Time when, F&& fn) {
    EVC_CHECK(when >= now_);
    return queue_.Push(when, Task(&slab_, std::forward<F>(fn)));
  }

  /// Schedules `fn` to run `delay` after Now().
  template <typename F>
  EventId ScheduleAfter(Time delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event and destroys its closure. Returns true if the
  /// event had not yet run and was not already cancelled.
  bool Cancel(EventId id);

  /// Executes the next pending event, advancing the clock. Returns false if
  /// the queue is empty.
  bool Step();

  /// Runs until the event queue drains.
  void Run();

  /// Runs until the queue drains or the next event would exceed `deadline`.
  /// Events scheduled at exactly `deadline` execute, and the clock always
  /// ends at exactly `deadline` — even when the queue drains early — so
  /// consecutive RunFor(d) calls each advance the clock by exactly d.
  void RunUntil(Time deadline);

  /// Runs for `duration` more virtual time.
  void RunFor(Time duration) { RunUntil(now_ + duration); }

  /// Number of events executed so far (diagnostic).
  uint64_t events_executed() const { return events_executed_; }
  /// Number of events currently pending: scheduled, not yet executed, not
  /// cancelled (the size of the event heap).
  size_t pending_events() const { return queue_.pending(); }

  /// Event-closure and payload arena. Network/RPC box message payloads here;
  /// the allocator is freed wholesale when the simulator dies, so anything
  /// boxed must not outlive the simulation.
  Slab& slab() { return slab_; }

  /// Simulator-level RNG; components should Fork() their own stream.
  Rng& rng() { return rng_; }

  /// Sim-wide observability: metrics registries (global + per-node) and the
  /// trace-span recorder. Components instrument themselves through these;
  /// exporters (obs/export.h, bench/harness.h) serialize them after a run.
  obs::Metrics& metrics() { return metrics_; }
  const obs::Metrics& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  // --- crash participants --------------------------------------------------
  // The nemesis fault layer (sim/nemesis.h) drives these when its crashes
  // drop volatile state; a direct Network::SetNodeUp remains a network-only
  // fault (no state loss).

  /// Registers `p` to receive crash/restart notifications for `node`.
  /// Multiple participants per node run in registration order.
  void RegisterCrashParticipant(uint32_t node, CrashParticipant* p);
  /// Removes `p` from every node it was registered for (component teardown).
  void UnregisterCrashParticipant(CrashParticipant* p);
  /// Invokes OnCrash on every participant registered for `node`.
  void NotifyCrash(uint32_t node);
  /// Pairs with the last unmatched NotifyCrash(node): invokes OnRestart on
  /// every participant registered for `node` and bumps the global
  /// `crash.recoveries` counter when any participant recovered. Without an
  /// unmatched crash it does nothing, so no journal replays over live state.
  void NotifyRestart(uint32_t node);

  /// Liveness token for participants whose destruction order relative to
  /// the simulator is not guaranteed (test fixtures commonly rebuild the
  /// simulator before the clusters that registered with it). Expired =>
  /// the simulator is gone and unregistration must be skipped.
  std::weak_ptr<void> liveness() const { return liveness_; }

 private:
  Time now_ = 0;
  uint64_t events_executed_ = 0;

  // slab_ must outlive queue_ (declared first): pending closures free into
  // it when the queue destructs.
  Slab slab_;
  EventQueue queue_;

  Rng rng_;
  obs::Metrics metrics_;
  obs::Tracer tracer_;
  // Ordered map so notification order is deterministic across runs.
  std::map<uint32_t, std::vector<CrashParticipant*>> crash_participants_;
  std::set<uint32_t> crashed_;  ///< nodes with an unmatched NotifyCrash
  std::shared_ptr<void> liveness_ = std::make_shared<int>(0);
};

/// RAII guard owning one participant's registrations. Unregisters on
/// destruction — but only if the simulator is still alive (checked via
/// Simulator::liveness()), so clusters and simulators may die in either
/// order.
class CrashRegistrar {
 public:
  CrashRegistrar() = default;
  CrashRegistrar(const CrashRegistrar&) = delete;
  CrashRegistrar& operator=(const CrashRegistrar&) = delete;
  ~CrashRegistrar() {
    if (sim_ != nullptr && !liveness_.expired()) {
      sim_->UnregisterCrashParticipant(participant_);
    }
  }

  /// Registers `p` for `node`. All calls on one registrar must pass the
  /// same simulator and participant.
  void Register(Simulator* sim, uint32_t node, CrashParticipant* p) {
    EVC_CHECK(sim_ == nullptr || (sim_ == sim && participant_ == p));
    sim_ = sim;
    participant_ = p;
    liveness_ = sim->liveness();
    sim->RegisterCrashParticipant(node, p);
  }

 private:
  Simulator* sim_ = nullptr;
  CrashParticipant* participant_ = nullptr;
  std::weak_ptr<void> liveness_;
};

}  // namespace evc::sim

#endif  // EVC_SIM_SIMULATOR_H_

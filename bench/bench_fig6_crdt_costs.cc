// Fig. 6 — CRDT costs: throughput, state growth, and what each
// replication style ships.
//
// Claims (tutorial): CRDT operations are cheap (local data-structure work);
// the costs hide in *state*: tombstoned OR-sets grow without bound under
// churn while the optimized representation stays proportional to the live
// set, and delta replication ships orders of magnitude less than full
// state. Op-based replication ships one op per update, but only under a
// delivery contract: exactly once, and causal order for the OR-set.
// google-benchmark microbenchmarks, state-size tables, and op-based
// replication over a simulated three-region WAN (Fig. 6e).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clock/lamport.h"
#include "common/rng.h"
#include "crdt/delta_orset.h"
#include "crdt/gcounter.h"
#include "crdt/geo_broadcast.h"
#include "crdt/op_crdts.h"
#include "crdt/orset.h"
#include "crdt/registers.h"
#include "crdt/rga.h"
#include "harness.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

using namespace evc;
using namespace evc::crdt;

// Seconds each case runs for: enough for stable per-op timings, while the
// library's default would make this binary most of a full bench sweep.
// The timings print to stdout only, so the BENCH JSON does not depend on it.
constexpr double kMinTime = 0.05;

void BM_GCounterIncrement(benchmark::State& state) {
  GCounter counter;
  uint32_t replica = 0;
  for (auto _ : state) {
    counter.Increment(replica++ % 16);
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_GCounterIncrement)->MinTime(kMinTime);

void BM_GCounterMerge(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  GCounter a, b;
  for (int i = 0; i < replicas; ++i) {
    a.Increment(static_cast<uint32_t>(i), 5);
    b.Increment(static_cast<uint32_t>(i + replicas / 2), 7);
  }
  for (auto _ : state) {
    GCounter merged = a;
    merged.Merge(b);
    benchmark::DoNotOptimize(merged.Value());
  }
}
BENCHMARK(BM_GCounterMerge)->Arg(4)->Arg(16)->Arg(64)->MinTime(kMinTime);

void BM_LwwRegisterSet(benchmark::State& state) {
  LwwRegister reg;
  uint64_t ts = 0;
  for (auto _ : state) {
    reg.Set("value", LamportTimestamp{++ts, 0});
  }
  benchmark::DoNotOptimize(reg.has_value());
}
BENCHMARK(BM_LwwRegisterSet)->MinTime(kMinTime);

void BM_OrSetAdd(benchmark::State& state) {
  OrSet set(0);
  uint64_t i = 0;
  for (auto _ : state) {
    set.Add("element" + std::to_string(i++ % 64));
  }
  benchmark::DoNotOptimize(set.size());
}
BENCHMARK(BM_OrSetAdd)->MinTime(kMinTime);

void BM_OrSwotAdd(benchmark::State& state) {
  OrSwot set(0);
  uint64_t i = 0;
  for (auto _ : state) {
    set.Add("element" + std::to_string(i++ % 64));
  }
  benchmark::DoNotOptimize(set.size());
}
BENCHMARK(BM_OrSwotAdd)->MinTime(kMinTime);

template <typename SetT>
void MergeBenchBody(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  SetT a(0), b(1);
  for (int i = 0; i < elements; ++i) {
    a.Add("a" + std::to_string(i));
    b.Add("b" + std::to_string(i));
    if (i % 3 == 0) {
      a.Remove("a" + std::to_string(i));
      b.Remove("b" + std::to_string(i));
    }
  }
  for (auto _ : state) {
    SetT merged = a;
    merged.Merge(b);
    benchmark::DoNotOptimize(merged.size());
  }
}

void BM_OrSetMerge(benchmark::State& state) { MergeBenchBody<OrSet>(state); }
BENCHMARK(BM_OrSetMerge)->Arg(64)->Arg(512)->Arg(4096)->MinTime(kMinTime);

void BM_OrSwotMerge(benchmark::State& state) { MergeBenchBody<OrSwot>(state); }
BENCHMARK(BM_OrSwotMerge)->Arg(64)->Arg(512)->Arg(4096)->MinTime(kMinTime);

void BM_RgaAppend(benchmark::State& state) {
  Rga doc(0);
  for (auto _ : state) {
    doc.PushBack("x");
  }
  benchmark::DoNotOptimize(doc.live_size());
}
BENCHMARK(BM_RgaAppend)->MinTime(kMinTime);

void BM_RgaMergeDivergentEdits(benchmark::State& state) {
  const int edits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rga a(0), b(1);
    for (int i = 0; i < 50; ++i) a.PushBack("s");
    b.MergeFrom(a);
    for (int i = 0; i < edits; ++i) {
      a.PushBack("a");
      b.PushBack("b");
    }
    state.ResumeTiming();
    a.MergeFrom(b);
    benchmark::DoNotOptimize(a.live_size());
  }
}
BENCHMARK(BM_RgaMergeDivergentEdits)->Arg(16)->Arg(128)->MinTime(kMinTime);

// --- Fig. 6e: op-based replication through GeoBroadcast --------------------

// One op-based CRDT replicated by GeoBroadcast, one member in each of the
// three WAN regions.
template <typename Crdt>
struct OpGroup {
  OpGroup(std::vector<Crdt> initial, bool causal, uint64_t seed,
          double jitter)
      : replicas(std::move(initial)), sim(seed) {
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs(), jitter);
    auto* wan = latency.get();
    net = std::make_unique<sim::Network>(&sim, std::move(latency));
    GeoBroadcastOptions options;
    options.causal = causal;
    broadcast = std::make_unique<GeoBroadcast>(net.get(), options);
    for (uint32_t i = 0; i < replicas.size(); ++i) {
      const sim::NodeId node = net->AddNode();
      wan->AssignNode(node, i);
      broadcast->AddMember(node, [this, i](uint32_t, const sim::Payload& op) {
        replicas[i].Apply(op.Peek<typename Crdt::Op>());
      });
    }
  }

  /// Publishes `op` from `origin`; returns the op's bytes to all peers (the
  /// broadcast counts its own stamps).
  uint64_t Publish(uint32_t origin, typename Crdt::Op op) {
    const uint64_t bytes = op.Bytes() * (replicas.size() - 1);
    broadcast->Publish(origin, std::move(op));
    return bytes;
  }

  uint64_t MinDelivered() const {
    uint64_t least = UINT64_MAX;
    for (uint32_t i = 0; i < replicas.size(); ++i) {
      least = std::min(least, broadcast->delivered_at(i));
    }
    return least;
  }

  std::vector<Crdt> replicas;
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<GeoBroadcast> broadcast;
};

std::vector<OpOrSet> ThreeOrSets() {
  return {OpOrSet(0), OpOrSet(1), OpOrSet(2)};
}

// Bytes each replication style ships to the two peers over one run.
struct ShippedBytes {
  uint64_t op = 0, state = 0, delta = 0;
};

constexpr int kStyleUpdates = 300;

// Each update increments the counter at a random member. The run settles
// after every update, so each style's origin has seen all earlier ones.
ShippedBytes CounterBytes(uint64_t seed) {
  OpGroup<OpCounter> ops(std::vector<OpCounter>(3), /*causal=*/true, seed,
                         /*jitter=*/0.05);
  std::vector<GCounter> states(3);
  Rng rng(seed);
  ShippedBytes shipped;
  for (int u = 0; u < kStyleUpdates; ++u) {
    const auto r = static_cast<uint32_t>(rng.NextBounded(3));
    shipped.op += ops.Publish(r, OpCounter::MakeIncrement(1));
    const GCounter delta = states[r].Increment(r);
    for (uint32_t p = 0; p < 3; ++p) {
      if (p != r) states[p].Merge(delta);
    }
    shipped.state += 2 * states[r].StateBytes();
    shipped.delta += 2 * delta.StateBytes();
    ops.sim.Run();
  }
  shipped.op += ops.broadcast->stamp_bytes_sent();
  return shipped;
}

// Each update toggles one of 16 hot items at a random member: removes it
// if present there, else adds it. Settles after every update, as above.
ShippedBytes OrSetBytes(uint64_t seed) {
  OpGroup<OpOrSet> ops(ThreeOrSets(), /*causal=*/true, seed,
                       /*jitter=*/0.05);
  std::vector<DeltaOrSet> states = {DeltaOrSet(0), DeltaOrSet(1),
                                    DeltaOrSet(2)};
  Rng rng(seed);
  ShippedBytes shipped;
  for (int u = 0; u < kStyleUpdates; ++u) {
    const auto r = static_cast<uint32_t>(rng.NextBounded(3));
    const std::string item = "item" + std::to_string(rng.NextBounded(16));
    OpOrSet& mine = ops.replicas[r];
    const bool remove = mine.Contains(item);
    shipped.op +=
        ops.Publish(r, remove ? mine.MakeRemove(item) : mine.MakeAdd(item));
    const DeltaOrSet delta =
        remove ? states[r].Remove(item) : states[r].Add(item);
    for (uint32_t p = 0; p < 3; ++p) {
      if (p != r) states[p].Merge(delta);
    }
    shipped.state += 2 * states[r].StateBytes();
    shipped.delta += 2 * delta.StateBytes();
    ops.sim.Run();
  }
  shipped.op += ops.broadcast->stamp_bytes_sent();
  return shipped;
}

struct DeliveryArm {
  uint64_t min_delivered = 0;
  bool counter_converged = false;
  size_t zombies = 0;
};

// Member 0 publishes 100 ops back to back under heavy jitter (3.0), so ops
// overtake each other in flight: 100 counter increments, and 50 add-then-
// remove pairs on the OR-set. A zombie is an element left at any member.
DeliveryArm RunDeliveryArm(bool causal, uint64_t seed) {
  constexpr double kJitter = 3.0;
  OpGroup<OpCounter> counter(std::vector<OpCounter>(3), causal, seed,
                             kJitter);
  for (int i = 0; i < 100; ++i) {
    counter.Publish(0, OpCounter::MakeIncrement(1));
  }
  counter.sim.Run();
  OpGroup<OpOrSet> set(ThreeOrSets(), causal, seed, kJitter);
  for (int round = 0; round < 50; ++round) {
    const std::string item = "item" + std::to_string(round);
    set.Publish(0, set.replicas[0].MakeAdd(item));
    set.Publish(0, set.replicas[0].MakeRemove(item));
  }
  set.sim.Run();

  DeliveryArm arm;
  arm.min_delivered = std::min(counter.MinDelivered(), set.MinDelivered());
  arm.counter_converged = std::all_of(
      counter.replicas.begin(), counter.replicas.end(),
      [](const OpCounter& c) { return c.Value() == 100; });
  for (const OpOrSet& s : set.replicas) arm.zombies += s.size();
  return arm;
}

}  // namespace

// The state-size and replication tables run after the microbenchmarks.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  evc::bench::Harness harness("fig6_crdt_costs");
  harness.Note("microbench",
               "google-benchmark timings print to stdout only (wall-clock, "
               "not deterministic); the JSON keeps the state-size tables");
  harness.Table("state_growth", {"churn_ops", "tombstoned_bytes",
                                 "optimized_bytes", "ratio"});
  harness.Table("gcounter_delta",
                {"increments", "full_state_bytes", "delta_bytes"});
  harness.Table("orset_delta", {"live_items", "full_state_bytes",
                                "delta_bytes"});
  harness.Table("replication_bytes", {"crdt", "style", "bytes_per_update"});
  harness.Table("causal_delivery", {"causal", "seed", "min_ops_delivered",
                                    "counter_converged", "orset_zombies"});
  std::printf(
      "\n=== Fig. 6b-e: CRDT state growth and bytes per replication style "
      "===\n");

  // 6b: each round adds then removes one of 16 hot items.
  bool churn_shape = true;
  size_t prev_tombstoned = 0, prev_optimized = 0;
  for (int churn : {100, 1000, 10000, 50000}) {
    evc::crdt::OrSet tombstoned(0);
    evc::crdt::OrSwot optimized(0);
    for (int i = 0; i < churn; ++i) {
      const std::string item = "item" + std::to_string(i % 16);
      tombstoned.Add(item);
      tombstoned.Remove(item);
      optimized.Add(item);
      optimized.Remove(item);
    }
    const double ratio = static_cast<double>(tombstoned.StateBytes()) /
                         static_cast<double>(optimized.StateBytes());
    harness.Row("state_growth",
                {evc::obs::Json(churn),
                 evc::obs::Json(static_cast<uint64_t>(tombstoned.StateBytes())),
                 evc::obs::Json(static_cast<uint64_t>(optimized.StateBytes())),
                 evc::obs::Json(ratio)});
    churn_shape = churn_shape && tombstoned.StateBytes() > prev_tombstoned &&
                  (prev_optimized == 0 ||
                   optimized.StateBytes() == prev_optimized);
    prev_tombstoned = tombstoned.StateBytes();
    prev_optimized = optimized.StateBytes();
  }
  harness.Claim("tombstones_grow", churn_shape,
                "under churn the tombstoned OR-set grows every round while "
                "the optimized one keeps its size");

  // 6c: a GCounter across 16 replicas ships one increment per sync.
  bool counter_shape = true;
  double prev_delta_per_op = 0, prev_full_per_op = 0;
  for (int increments : {10, 100, 1000, 10000}) {
    evc::crdt::GCounter full;
    size_t full_bytes = 0, delta_bytes = 0;
    for (int i = 0; i < increments; ++i) {
      const evc::crdt::GCounter delta =
          full.Increment(static_cast<uint32_t>(i % 16));
      full_bytes += full.StateBytes();   // shipping the whole state each time
      delta_bytes += delta.StateBytes(); // shipping only the delta
    }
    harness.Row("gcounter_delta",
                {evc::obs::Json(increments),
                 evc::obs::Json(static_cast<uint64_t>(full_bytes)),
                 evc::obs::Json(static_cast<uint64_t>(delta_bytes))});
    const double delta_per_op = static_cast<double>(delta_bytes) / increments;
    const double full_per_op = static_cast<double>(full_bytes) / increments;
    counter_shape =
        counter_shape && full_per_op > prev_full_per_op &&
        (prev_delta_per_op == 0 || delta_per_op == prev_delta_per_op);
    prev_delta_per_op = delta_per_op;
    prev_full_per_op = full_per_op;
  }
  harness.Claim("counter_delta_constant", counter_shape,
                "GCounter deltas ship the same bytes per increment at every "
                "run length; full state per increment grows");

  // 6d: a replica with L live items syncs one add to a peer.
  bool orset_shape = true;
  size_t prev_full = 0, prev_delta = 0;
  for (int live : {10, 100, 1000, 10000}) {
    evc::crdt::DeltaOrSet set(0);
    for (int i = 0; i < live; ++i) set.Add("item" + std::to_string(i));
    const evc::crdt::DeltaOrSet delta = set.Add("one-more");
    harness.Row("orset_delta",
                {evc::obs::Json(live),
                 evc::obs::Json(static_cast<uint64_t>(set.StateBytes())),
                 evc::obs::Json(static_cast<uint64_t>(delta.StateBytes()))});
    orset_shape = orset_shape && set.StateBytes() > prev_full &&
                  (prev_delta == 0 || delta.StateBytes() == prev_delta);
    prev_full = set.StateBytes();
    prev_delta = delta.StateBytes();
  }
  harness.Claim("orset_delta_constant", orset_shape,
                "one OR-set add ships the same delta at every live-set size; "
                "full state grows with the set");

  // 6e: 3 WAN members, kStyleUpdates updates at random members, each
  // shipped to both peers; op = op + origin/seq/deps stamp.
  const std::pair<const char*, ShippedBytes> by_crdt[] = {
      {"gcounter", CounterBytes(6)}, {"orset", OrSetBytes(6)}};
  for (const auto& [crdt, shipped] : by_crdt) {
    const std::pair<const char*, uint64_t> styles[] = {
        {"op", shipped.op}, {"state", shipped.state},
        {"delta", shipped.delta}};
    for (const auto& [style, bytes] : styles) {
      const double per_update = static_cast<double>(bytes) / kStyleUpdates;
      harness.Row("replication_bytes", {evc::obs::Json(crdt),
                                        evc::obs::Json(style),
                                        evc::obs::Json(per_update)});
    }
  }
  const ShippedBytes& counter = by_crdt[0].second;
  const ShippedBytes& orset = by_crdt[1].second;
  harness.Claim("delta_ships_least",
                counter.delta < std::min(counter.op, counter.state) &&
                    orset.delta < std::min(orset.op, orset.state),
                "delta ships the fewest bytes per update for both CRDTs");
  harness.Claim("op_beats_state_only_for_orset",
                counter.op > counter.state && orset.op < orset.state,
                "an op's causal stamp is group-sized, so op-based beats full "
                "state only where state grows with the data (the OR-set)");

  // 6e: member 0 publishes 100 ops under heavy WAN jitter: 100 counter
  // increments, 50 OR-set add-then-remove pairs.
  bool exactly_once = true, zombies_without_causal_only = true;
  for (bool causal : {true, false}) {
    for (uint64_t seed : {4, 9, 12}) {
      const DeliveryArm arm = RunDeliveryArm(causal, seed);
      harness.Row("causal_delivery",
                  {evc::obs::Json(causal), evc::obs::Json(seed),
                   evc::obs::Json(arm.min_delivered),
                   evc::obs::Json(arm.counter_converged),
                   evc::obs::Json(static_cast<uint64_t>(arm.zombies))});
      exactly_once = exactly_once && arm.min_delivered == 100 &&
                     arm.counter_converged;
      zombies_without_causal_only =
          zombies_without_causal_only && (arm.zombies > 0) != causal;
    }
  }
  harness.Claim("counter_converges_either_way", exactly_once,
                "with causal delivery on or off every op arrives exactly once "
                "and the op-based counter converges");
  harness.Claim("zombies_only_without_causal", zombies_without_causal_only,
                "without causal delivery removes that overtake their adds "
                "leave zombies in every run; with it there are none");
  return harness.Finish();
}

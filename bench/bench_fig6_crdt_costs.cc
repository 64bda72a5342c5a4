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

// Custom epilogue after the microbenchmarks: the state-size table.
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

  std::printf("\n=== Fig. 6b: OR-set state bytes after add/remove churn ===\n");
  std::printf("(each round adds then removes one of 16 hot items)\n\n");
  std::printf("%-12s %-18s %-18s %-8s\n", "churn ops", "tombstoned OrSet",
              "optimized OrSwot", "ratio");
  std::printf("------------------------------------------------------\n");
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
    std::printf("%-12d %-18zu %-18zu %-8.1fx\n", churn,
                tombstoned.StateBytes(), optimized.StateBytes(), ratio);
    harness.Row("state_growth",
                {evc::obs::Json(churn),
                 evc::obs::Json(static_cast<uint64_t>(tombstoned.StateBytes())),
                 evc::obs::Json(static_cast<uint64_t>(optimized.StateBytes())),
                 evc::obs::Json(ratio)});
  }

  std::printf("\n=== Fig. 6c: delta vs full-state replication bytes ===\n");
  std::printf("(GCounter across 16 replicas, 1 increment shipped per sync)\n\n");
  std::printf("%-12s %-18s %-18s\n", "increments", "full-state bytes",
              "delta bytes");
  std::printf("--------------------------------------------\n");
  for (int increments : {10, 100, 1000, 10000}) {
    evc::crdt::GCounter full;
    size_t full_bytes = 0, delta_bytes = 0;
    for (int i = 0; i < increments; ++i) {
      const evc::crdt::GCounter delta =
          full.Increment(static_cast<uint32_t>(i % 16));
      full_bytes += full.StateBytes();   // shipping the whole state each time
      delta_bytes += delta.StateBytes(); // shipping only the delta
    }
    std::printf("%-12d %-18zu %-18zu\n", increments, full_bytes, delta_bytes);
    harness.Row("gcounter_delta",
                {evc::obs::Json(increments),
                 evc::obs::Json(static_cast<uint64_t>(full_bytes)),
                 evc::obs::Json(static_cast<uint64_t>(delta_bytes))});
  }

  std::printf("\n=== Fig. 6d: delta vs full-state OR-set (dot-cloud deltas) "
              "===\n");
  std::printf("(replica with L live items syncing one add to a peer)\n\n");
  std::printf("%-12s %-18s %-18s\n", "live items", "full-state bytes",
              "delta bytes");
  std::printf("--------------------------------------------\n");
  for (int live : {10, 100, 1000, 10000}) {
    evc::crdt::DeltaOrSet set(0);
    for (int i = 0; i < live; ++i) set.Add("item" + std::to_string(i));
    const evc::crdt::DeltaOrSet delta = set.Add("one-more");
    std::printf("%-12d %-18zu %-18zu\n", live, set.StateBytes(),
                delta.StateBytes());
    harness.Row("orset_delta",
                {evc::obs::Json(live),
                 evc::obs::Json(static_cast<uint64_t>(set.StateBytes())),
                 evc::obs::Json(static_cast<uint64_t>(delta.StateBytes()))});
  }

  std::printf("\n=== Fig. 6e: bytes shipped per update, by replication "
              "style ===\n");
  std::printf("(3 WAN members, %d updates at random members, each shipped "
              "to both peers;\n op = op + origin/seq/deps stamp)\n\n",
              kStyleUpdates);
  std::printf("%-10s %-8s %-14s\n", "crdt", "style", "bytes/update");
  std::printf("--------------------------------\n");
  const std::pair<const char*, ShippedBytes> by_crdt[] = {
      {"gcounter", CounterBytes(6)}, {"orset", OrSetBytes(6)}};
  for (const auto& [crdt, shipped] : by_crdt) {
    const std::pair<const char*, uint64_t> styles[] = {
        {"op", shipped.op}, {"state", shipped.state},
        {"delta", shipped.delta}};
    for (const auto& [style, bytes] : styles) {
      const double per_update = static_cast<double>(bytes) / kStyleUpdates;
      std::printf("%-10s %-8s %-14.1f\n", crdt, style, per_update);
      harness.Row("replication_bytes", {evc::obs::Json(crdt),
                                        evc::obs::Json(style),
                                        evc::obs::Json(per_update)});
    }
  }

  std::printf("\n=== Fig. 6e: op-based replication with and without causal "
              "delivery ===\n");
  std::printf("(member 0 publishes 100 ops under heavy WAN jitter: 100 "
              "counter increments,\n 50 OR-set add-then-remove pairs)\n\n");
  std::printf("%-7s %-5s %-14s %-18s %-14s\n", "causal", "seed",
              "min delivered", "counter converged", "OR-set zombies");
  std::printf("------------------------------------------------------------"
              "\n");
  // The claim: every op arrives exactly once either way, so the counter
  // converges in both arms; zombies appear only without causal order.
  bool as_claimed = true;
  for (bool causal : {true, false}) {
    for (uint64_t seed : {4, 9, 12}) {
      const DeliveryArm arm = RunDeliveryArm(causal, seed);
      std::printf("%-7s %-5llu %-14llu %-18s %-14zu\n", causal ? "on" : "off",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(arm.min_delivered),
                  arm.counter_converged ? "yes" : "no", arm.zombies);
      harness.Row("causal_delivery",
                  {evc::obs::Json(causal), evc::obs::Json(seed),
                   evc::obs::Json(arm.min_delivered),
                   evc::obs::Json(arm.counter_converged),
                   evc::obs::Json(static_cast<uint64_t>(arm.zombies))});
      if (!arm.counter_converged || (arm.zombies > 0) == causal) {
        as_claimed = false;
        std::printf("ERROR: this arm contradicts the claim below\n");
      }
    }
  }
  EVC_CHECK_OK(harness.Write());
  std::printf(
      "\nExpected shape: tombstoned state grows linearly with churn while\n"
      "the optimized set stays flat (ratio grows unboundedly); delta\n"
      "replication bytes stay ~constant per op while full-state grows\n"
      "with the replica count represented in the counter. (6e) Delta ships\n"
      "least; an op ships little, but its causal stamp carries a vector\n"
      "the size of the group, so op-based beats full state only where the\n"
      "state grows with the data (the OR-set). Every op arrives exactly\n"
      "once with causal delivery on or off, so the counter converges in\n"
      "both arms; without it, removes that overtake their adds leave\n"
      "zombie elements, and with it there are none.\n");
  return as_claimed ? 0 : 1;
}

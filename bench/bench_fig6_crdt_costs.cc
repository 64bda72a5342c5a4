// Fig. 6 — CRDT costs: throughput, state growth, delta vs full-state.
//
// Claims (tutorial): CRDT operations are cheap (local data-structure work);
// the costs hide in *state*: tombstoned OR-sets grow without bound under
// churn while the optimized representation stays proportional to the live
// set, and delta replication ships orders of magnitude less than full
// state. google-benchmark microbenchmarks + a state-size table.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "clock/lamport.h"
#include "crdt/delta_orset.h"
#include "crdt/gcounter.h"
#include "crdt/orset.h"
#include "crdt/registers.h"
#include "crdt/rga.h"
#include "harness.h"

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
  EVC_CHECK_OK(harness.Write());
  std::printf(
      "\nExpected shape: tombstoned state grows linearly with churn while\n"
      "the optimized set stays flat (ratio grows unboundedly); delta\n"
      "replication bytes stay ~constant per op while full-state grows\n"
      "with the replica count represented in the counter.\n");
  return 0;
}

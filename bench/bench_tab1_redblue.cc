// Table 1 — RedBlue consistency: cost as a function of the red fraction.
//
// Claim (tutorial, after Li et al.): the more operations can be labelled
// blue (commutative, invariant-safe), the closer the system runs to local
// latency; every red operation pays a WAN round trip to the serialization
// point. Mean latency and (closed-loop) throughput degrade smoothly as the
// red fraction rises from 0% to 100%.
//
// Setup: 3 sites on the WAN matrix, sequencer at site 0, one closed-loop
// client per site issuing 100 banking ops with the given red fraction
// (red = invariant-checked withdraw; blue = deposit).

#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "harness.h"
#include "txn/redblue.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct MixResult {
  double mean_ms = 0;
  double p99_ms = 0;
  double ops_per_sec = 0;
  uint64_t aborts = 0;
  uint64_t invariant_violations = 0;
};

MixResult RunMix(double red_fraction, uint64_t seed) {
  sim::Simulator sim(seed);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  txn::RedBlueBank bank(&rpc, 3);
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < 3; ++i) {
    wan->AssignNode(bank.site_node(i), i);
    clients.push_back(net.AddNode());
    wan->AssignNode(clients.back(), i);
  }

  // Seed generous funds so red withdrawals rarely abort on balance.
  bool seeded = false;
  bank.Deposit(clients[0], 0, "acct", 1000000,
               [&](Result<int64_t> r) { seeded = r.ok(); });
  sim.RunFor(2 * kSecond);
  EVC_CHECK(seeded);
  sim.RunFor(2 * kSecond);

  Rng rng(seed * 31 + 7);
  Histogram latency_hist;
  const sim::Time bench_start = sim.Now();
  const int ops_per_client = 100;
  // Closed loop per client, interleaved round-robin.
  for (int i = 0; i < ops_per_client; ++i) {
    for (int site = 0; site < 3; ++site) {
      const sim::Time start = sim.Now();
      sim::Time done = -1;
      auto cb = [&](Result<int64_t>) { done = sim.Now(); };
      if (rng.NextBool(red_fraction)) {
        bank.WithdrawRed(clients[site], site, "acct", 1, cb);
      } else {
        bank.Deposit(clients[site], site, "acct", 1, cb);
      }
      // Closed loop: step the simulation only until this op completes, so
      // elapsed virtual time equals the op's true latency.
      while (done < 0 && sim.Step()) {
      }
      EVC_CHECK(done >= 0);
      latency_hist.Add(static_cast<double>(done - start));
    }
  }
  const double elapsed_s =
      static_cast<double>(sim.Now() - bench_start) / kSecond;

  MixResult result;
  result.mean_ms = latency_hist.mean() / kMillisecond;
  result.p99_ms = latency_hist.Percentile(0.99) / kMillisecond;
  result.ops_per_sec = (3.0 * ops_per_client) / elapsed_s;
  result.aborts = bank.stats().red_aborts;
  result.invariant_violations = bank.stats().invariant_violations;
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("tab1_redblue");
  harness.Table("mixes", {"red_fraction", "mean_ms", "p99_ms", "ops_per_sec",
                          "aborts"});
  std::printf(
      "=== Table 1: RedBlue bank, latency/throughput vs red fraction ===\n"
      "(3 WAN sites, sequencer at US-East, closed-loop clients)\n");
  bool all_blue_local = true, smooth = true, invariant_holds = true;
  MixResult prev;
  for (double red : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    const MixResult r = RunMix(red, 11 + static_cast<uint64_t>(red * 100));
    harness.Row("mixes",
                {obs::Json(red), obs::Json(r.mean_ms), obs::Json(r.p99_ms),
                 obs::Json(r.ops_per_sec), obs::Json(r.aborts)});
    if (red == 0.0) {
      all_blue_local = r.mean_ms < 1.0;
    } else {
      smooth = smooth && r.mean_ms > prev.mean_ms &&
               r.ops_per_sec < prev.ops_per_sec;
    }
    invariant_holds = invariant_holds && r.invariant_violations == 0;
    prev = r;
  }
  harness.Claim("all_blue_is_local", all_blue_local,
                "at 0% red every op is local: mean latency under 1 ms");
  harness.Claim("red_fraction_costs", smooth,
                "mean latency rises and closed-loop throughput falls at "
                "every step up in the red fraction");
  harness.Claim("invariant_holds", invariant_holds,
                "no site ever sees a negative balance, at every mix");
  return harness.Finish();
}

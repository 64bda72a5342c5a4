// Table 2 — Escrow vs naive replicated counter under contention.
//
// Claim (tutorial, after O'Neil): a replicated counter maintained by local
// check-then-decrement oversells under concurrency (the classic flash-sale
// bug); escrow reservations keep the invariant with almost entirely local
// work, coordinating only to rebalance shares.
//
// Setup: 4 replicas, stock of 500 units, B concurrent buyers each grabbing
// one unit, all in flight simultaneously. Sweep B.

#include <cstdio>
#include <memory>

#include "harness.h"
#include "txn/escrow.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Outcome {
  int ok = 0;
  int aborted = 0;
  int64_t oversold = 0;
  uint64_t transfers = 0;
};

Outcome RunEscrow(int buyers, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             5 * kMillisecond, 50 * kMillisecond));
  sim::Rpc rpc(&net);
  txn::EscrowCluster escrow(&rpc, 4, 500);
  const sim::NodeId client = net.AddNode();
  Rng rng(seed);
  Outcome out;
  for (int b = 0; b < buyers; ++b) {
    // Skewed routing (60% of buyers hit replica 0): the hot replica's
    // share drains first and escrow must rebalance from its peers.
    const int replica = rng.NextBool(0.6) ? 0 : 1 + b % 3;
    escrow.Acquire(client, replica, 1, [&](Result<int64_t> r) {
      r.ok() ? ++out.ok : ++out.aborted;
    });
  }
  sim.RunFor(120 * kSecond);
  out.oversold = escrow.total_acquired() > 500
                     ? escrow.total_acquired() - 500
                     : 0;
  out.transfers = escrow.stats().transfers;
  return out;
}

Outcome RunNaive(int buyers, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             5 * kMillisecond, 50 * kMillisecond));
  sim::Rpc rpc(&net);
  txn::NaiveCounterCluster naive(&rpc, 4, 500);
  const sim::NodeId client = net.AddNode();
  Outcome out;
  for (int b = 0; b < buyers; ++b) {
    naive.Acquire(client, b % 4, 1, [&](Result<int64_t> r) {
      r.ok() ? ++out.ok : ++out.aborted;
    });
  }
  sim.RunFor(120 * kSecond);
  out.oversold = naive.Oversold();
  return out;
}

}  // namespace

int main() {
  bench::Harness harness("tab2_escrow");
  harness.Table("contention",
                {"buyers", "naive_sold", "naive_aborted", "naive_oversold",
                 "escrow_sold", "escrow_aborted", "escrow_transfers"});
  std::printf(
      "=== Table 2: selling 500 units from 4 replicas, B concurrent "
      "buyers ===\n");
  bool naive_oversells = true, escrow_exact = true, few_transfers = true;
  int64_t prev_oversold = 0;
  for (int buyers : {100, 400, 600, 1000, 2000}) {
    const Outcome naive = RunNaive(buyers, 17 + buyers);
    const Outcome escrow = RunEscrow(buyers, 23 + buyers);
    harness.Row("contention",
                {obs::Json(buyers), obs::Json(naive.ok),
                 obs::Json(naive.aborted), obs::Json(naive.oversold),
                 obs::Json(escrow.ok), obs::Json(escrow.aborted),
                 obs::Json(escrow.transfers)});
    if (buyers > 500) {
      naive_oversells = naive_oversells && naive.oversold > prev_oversold;
      prev_oversold = naive.oversold;
    }
    escrow_exact = escrow_exact && escrow.oversold == 0;
    few_transfers =
        few_transfers && escrow.transfers * 10 <= static_cast<uint64_t>(buyers);
  }
  harness.Claim("naive_oversells", naive_oversells,
                "past the 500-unit stock the naive counter oversells, more "
                "at each higher concurrency");
  harness.Claim("escrow_never_oversells", escrow_exact,
                "escrow never sells more than the 500 units in stock");
  harness.Claim("escrow_coordinates_rarely", few_transfers,
                "escrow's only coordination is a handful of share "
                "transfers: at most one per 10 buyers");
  return harness.Finish();
}

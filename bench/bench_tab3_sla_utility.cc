// Table 3 — Consistency SLAs (Pileus): utility adapts to client placement.
//
// Claim (tutorial, after Terry et al.): with a (latency, consistency,
// utility) SLA, the client library delivers the best consistency each
// client's position affords: near the primary it serves strong reads at
// full utility; far away it degrades to bounded-staleness or eventual
// reads instead of failing or stalling. Mean delivered utility per client
// placement is the reproduced table.
//
// Setup: primary in US-East, secondary in Asia; clients in US-East, EU,
// Asia; writer keeps the key warm; 50 SLA reads per client.

#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "sla/pileus.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

sla::Sla StandardSla() {
  return sla::Sla{
      {50 * kMillisecond, sla::ReadConsistency::kStrong, 0, 1.0},
      {120 * kMillisecond, sla::ReadConsistency::kBounded,
       800 * kMillisecond, 0.6},
      {kSecond, sla::ReadConsistency::kEventual, 0, 0.2},
  };
}

struct PlacementResult {
  double mean_utility = 0;
  double mean_latency_ms = 0;
  uint64_t row0 = 0, row1 = 0, row2 = 0, row_none = 0;
};

PlacementResult RunPlacement(int client_dc, uint64_t seed) {
  sim::Simulator sim(seed);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs());
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  sla::PileusOptions options;
  options.sync_interval = 200 * kMillisecond;
  sla::PileusCluster cluster(&rpc, options);
  const sim::NodeId primary = cluster.AddPrimary();
  wan->AssignNode(primary, 0);  // US-East
  const sim::NodeId secondary = cluster.AddSecondary();
  wan->AssignNode(secondary, 2);  // Asia
  cluster.Start();

  const sim::NodeId writer = net.AddNode();
  wan->AssignNode(writer, 0);
  const sim::NodeId client_node = net.AddNode();
  wan->AssignNode(client_node, client_dc);
  sla::PileusClient client(&cluster, &sim, client_node, StandardSla());

  // Warm the key and the client's monitors.
  bool ok = false;
  cluster.Put(writer, "item", "v0", [&](Result<uint64_t> r) { ok = r.ok(); });
  sim.RunFor(2 * kSecond);
  EVC_CHECK(ok);
  bool probed = false;
  client.Probe("item", [&] { probed = true; });
  sim.RunFor(2 * kSecond);
  EVC_CHECK(probed);

  PlacementResult result;
  OnlineStats latency_stats;
  for (int i = 0; i < 50; ++i) {
    // Keep the data warm: a write every other read, so staleness at the
    // secondary reflects the sync interval.
    if (i % 2 == 0) {
      cluster.Put(writer, "item", "v" + std::to_string(i),
                  [](Result<uint64_t>) {});
    }
    bool done = false;
    client.Get("item", [&](Result<sla::SlaReadResult> r) {
      done = true;
      if (!r.ok()) return;
      latency_stats.Add(static_cast<double>(r->observed_latency));
      switch (r->delivered_row) {
        case 0: ++result.row0; break;
        case 1: ++result.row1; break;
        case 2: ++result.row2; break;
        default: ++result.row_none; break;
      }
    });
    sim.RunFor(2 * kSecond);
    EVC_CHECK(done);
  }
  result.mean_utility = client.stats().delivered_utility.mean();
  result.mean_latency_ms = latency_stats.mean() / kMillisecond;
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("tab3_sla_utility");
  harness.Table("placements",
                {"client_dc", "mean_utility", "mean_latency_ms",
                 "reads_strong", "reads_bounded", "reads_eventual",
                 "reads_missed"});
  std::printf(
      "=== Table 3: Pileus SLA — delivered utility by client placement ===\n"
      "SLA: [strong@50ms -> 1.0 | bounded(800ms)@120ms -> 0.6 | "
      "eventual@1s -> 0.2]; primary: US-East; secondary: Asia\n");
  const char* names[] = {"US-East", "EU", "Asia"};
  double near = 0;  // the US-East client's utility
  bool degrade = true;
  for (int dc = 0; dc < 3; ++dc) {
    const PlacementResult r = RunPlacement(dc, 71 + static_cast<uint64_t>(dc));
    harness.Row("placements",
                {obs::Json(names[dc]), obs::Json(r.mean_utility),
                 obs::Json(r.mean_latency_ms), obs::Json(r.row0),
                 obs::Json(r.row1), obs::Json(r.row2),
                 obs::Json(r.row_none)});
    if (dc == 0) {
      near = r.mean_utility;
    } else {
      degrade = degrade && r.mean_utility >= 0.2 &&
                r.mean_utility <= near && r.row_none == 0;
    }
  }
  harness.Claim("near_primary_full_utility", near >= 0.95,
                "the US-East client, beside the primary, earns ~1.0 (at "
                "least 0.95) from strong reads");
  harness.Claim("remote_clients_degrade", degrade,
                "the EU and Asia clients miss no read and earn between the "
                "eventual row's 0.2 and the US-East client's utility");
  return harness.Finish();
}

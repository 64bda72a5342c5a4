// Table 4 — The quorum configuration matrix (N=3).
//
// Claim (tutorial): the (R, W) choice is a three-way dial among latency,
// availability, and consistency:
//   * latency: an operation waits for the max over its quorum, so bigger
//     quorums inherit the WAN tail;
//   * availability: an operation survives f replica failures iff its
//     quorum fits in the remaining N-f replicas;
//   * consistency: reads see the latest completed write iff R+W > N.
// One row per (R, W), all three columns measured.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/stats.h"
#include "harness.h"
#include "replication/quorum_store.h"
#include "stale/pbs.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct MatrixRow {
  double put_p50_ms = 0;
  double get_p50_ms = 0;
  bool write_survives_one_failure = false;
  bool read_survives_one_failure = false;
  double prob_fresh_read_at_0 = 0;  // PBS, immediately after commit
};

MatrixRow RunConfig(int r, int w, uint64_t seed) {
  MatrixRow row;
  // --- latency + availability on the simulated geo cluster ---------------
  {
    sim::Simulator sim(seed);
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs());
    auto* wan = latency.get();
    sim::Network net(&sim, std::move(latency));
    sim::Rpc rpc(&net);
    repl::QuorumConfig config;
    config.replication_factor = 3;
    config.read_quorum = r;
    config.write_quorum = w;
    config.sloppy = false;
    repl::DynamoCluster cluster(&rpc, config);
    auto servers = cluster.AddServers(3);
    for (int i = 0; i < 3; ++i) wan->AssignNode(servers[i], i);
    const sim::NodeId client = net.AddNode();
    wan->AssignNode(client, 0);

    Histogram put_hist, get_hist;
    for (int i = 0; i < 30; ++i) {
      const std::string key = "key" + std::to_string(i);
      sim::Time done = -1;
      sim::Time start = sim.Now();
      cluster.Put(client, servers[0], key, "v", {},
                  [&](Result<Version> res) {
                    if (res.ok()) done = sim.Now();
                  });
      sim.RunFor(5 * kSecond);
      if (done >= 0) put_hist.Add(static_cast<double>(done - start));
      start = sim.Now();
      done = -1;
      cluster.Get(client, servers[0], key, [&](Result<repl::ReadResult> res) {
        if (res.ok()) done = sim.Now();
      });
      sim.RunFor(5 * kSecond);
      if (done >= 0) get_hist.Add(static_cast<double>(done - start));
    }
    row.put_p50_ms = put_hist.Percentile(0.5) / kMillisecond;
    row.get_p50_ms = get_hist.Percentile(0.5) / kMillisecond;

    // Availability probe: crash one non-coordinator preference replica.
    const auto pref = cluster.PreferenceList("probe");
    net.SetNodeUp(pref[0] == servers[0] ? pref[1] : pref[0], false);
    std::optional<bool> write_ok, read_ok;
    cluster.Put(client, servers[0], "probe", "v", {},
                [&](Result<Version> res) { write_ok = res.ok(); });
    sim.RunFor(10 * kSecond);
    cluster.Get(client, servers[0], "probe",
                [&](Result<repl::ReadResult> res) { read_ok = res.ok(); });
    sim.RunFor(10 * kSecond);
    row.write_survives_one_failure = write_ok.value_or(false);
    row.read_survives_one_failure = read_ok.value_or(false);
  }
  // --- consistency via the PBS model --------------------------------------
  {
    stale::PbsConfig pbs_config;
    pbs_config.n = 3;
    pbs_config.r = r;
    pbs_config.w = w;
    stale::PbsEstimator pbs(pbs_config, seed);
    row.prob_fresh_read_at_0 = pbs.ProbConsistent(0, 20000);
  }
  return row;
}

}  // namespace

int main() {
  bench::Harness harness("tab4_quorum_matrix");
  harness.Table("matrix",
                {"r", "w", "put_p50_ms", "get_p50_ms", "write_survives_f1",
                 "read_survives_f1", "p_fresh_at_0", "classification"});
  std::printf(
      "=== Table 4: N=3 quorum matrix — latency / availability(f=1) / "
      "consistency ===\n");
  MatrixRow rows[4][4];  // rows[r][w], 1-based
  bool latency_grows = true, availability = true, fresh_iff_strict = true;
  for (int r = 1; r <= 3; ++r) {
    for (int w = 1; w <= 3; ++w) {
      const MatrixRow& row = rows[r][w] =
          RunConfig(r, w, 50 + static_cast<uint64_t>(r * 3 + w));
      const char* klass =
          (r + w > 3) ? "strict (read-latest)"
                      : "partial (eventual)";
      harness.Row("matrix",
                  {obs::Json(r), obs::Json(w), obs::Json(row.put_p50_ms),
                   obs::Json(row.get_p50_ms),
                   obs::Json(row.write_survives_one_failure),
                   obs::Json(row.read_survives_one_failure),
                   obs::Json(row.prob_fresh_read_at_0), obs::Json(klass)});
      latency_grows =
          latency_grows &&
          (w == 1 || row.put_p50_ms > rows[r][w - 1].put_p50_ms) &&
          (r == 1 || row.get_p50_ms > rows[r - 1][w].get_p50_ms);
      availability = availability &&
                     row.write_survives_one_failure == (w < 3) &&
                     row.read_survives_one_failure == (r < 3);
      fresh_iff_strict =
          fresh_iff_strict && (row.prob_fresh_read_at_0 == 1.0) == (r + w > 3);
    }
  }
  harness.Claim("latency_grows_with_quorum", latency_grows,
                "put p50 rises with W at every R, and get p50 with R at every "
                "W: a bigger quorum waits for a farther replica");
  harness.Claim("quorum_of_three_dies_with_one_failure", availability,
                "with one replica down an op survives exactly when its "
                "quorum is under 3");
  harness.Claim("fresh_iff_strict", fresh_iff_strict,
                "P(fresh read at t=0) is exactly 1.0 when R+W>3 and below "
                "1.0 otherwise");
  harness.Claim("freshness_rises_below_strict",
                std::min(rows[1][2].prob_fresh_read_at_0,
                         rows[2][1].prob_fresh_read_at_0) >
                    rows[1][1].prob_fresh_read_at_0,
                "below R+W>3, raising R or W raises P(fresh read at t=0)");
  return harness.Finish();
}

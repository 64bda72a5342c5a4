// Fig. 8 — Causal consistency: local latency, bounded dep-wait.
//
// Claims (tutorial, after COPS): causal+ gives anomaly-free reads at
// essentially eventual-consistency latency — clients commit locally — and
// the cost shows up only as *dependency wait* at remote datacenters: a
// write that overtakes its causal parent on a faster/luckier WAN path is
// buffered (never shown early). We measure:
//   (a) client write latency (always local, chain-depth independent);
//   (b) time from the last write of a reply chain until the whole chain is
//       visible at every datacenter (bounded by ~one WAN delay);
//   (c) how often replication overtakes causality on a jittery WAN and how
//       long the dependency check buffers those writes.

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "causal/causal_store.h"
#include "common/stats.h"
#include "harness.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Harness {
  explicit Harness(uint64_t seed, double jitter = 0.05) : sim(seed) {
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs(), jitter);
    wan = latency.get();
    net = std::make_unique<sim::Network>(&sim, std::move(latency));
    rpc = std::make_unique<sim::Rpc>(net.get());
    cluster = std::make_unique<causal::CausalCluster>(rpc.get());
    dcs = cluster->AddDatacenters(3);
    for (int i = 0; i < 3; ++i) wan->AssignNode(dcs[i], i);
    for (int i = 0; i < 3; ++i) {
      const sim::NodeId node = net->AddNode();
      wan->AssignNode(node, i);
      clients.emplace_back(cluster.get(), node, dcs[i]);
    }
  }

  // Runs the simulation until `flag` turns true (completion-driven).
  void StepUntil(const bool& flag) {
    while (!flag && sim.Step()) {
    }
    EVC_CHECK(flag);
  }

  sim::Simulator sim;
  sim::WanMatrixLatency* wan = nullptr;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<sim::Rpc> rpc;
  std::unique_ptr<causal::CausalCluster> cluster;
  std::vector<sim::NodeId> dcs;
  std::vector<causal::CausalClient> clients;
};

struct ChainResult {
  double mean_write_ms = 0;
  double chain_visible_ms = 0;  // last local commit -> chain fully visible
};

ChainResult RunChain(int depth, uint64_t seed) {
  Harness h(seed);
  OnlineStats write_latency;
  sim::Time last_commit = 0;
  for (int d = 0; d < depth; ++d) {
    causal::CausalClient& author = h.clients[d % 3];
    if (d > 0) {
      // Read the parent first (establishes the dependency); it may not
      // have replicated to this DC yet, so poll like a refreshing user.
      const std::string parent = "msg" + std::to_string(d - 1);
      bool found = false;
      while (!found) {
        bool replied = false;
        author.Get(parent, [&](Result<causal::CausalRead> r) {
          replied = true;
          found = r.ok() && r->found;
        });
        h.StepUntil(replied);
        if (!found) h.sim.RunFor(10 * kMillisecond);
      }
    }
    const sim::Time start = h.sim.Now();
    bool committed = false;
    author.Put("msg" + std::to_string(d), "reply " + std::to_string(d),
               [&](Result<causal::WriteId> r) {
                 EVC_CHECK(r.ok());
                 committed = true;
               });
    h.StepUntil(committed);
    write_latency.Add(static_cast<double>(h.sim.Now() - start));
    last_commit = h.sim.Now();
  }

  // Poll at 1 ms until the deepest message is visible at every DC.
  const std::string last_key = "msg" + std::to_string(depth - 1);
  sim::Time visible_at = -1;
  while (h.sim.Now() < last_commit + 300 * kSecond) {
    bool everywhere = true;
    for (const sim::NodeId dc : h.dcs) {
      everywhere &= h.cluster->LocalRead(dc, last_key).found;
    }
    if (everywhere) {
      visible_at = h.sim.Now();
      break;
    }
    h.sim.RunFor(kMillisecond);
  }
  EVC_CHECK(visible_at >= 0);

  ChainResult result;
  result.mean_write_ms = write_latency.mean() / kMillisecond;
  result.chain_visible_ms =
      static_cast<double>(visible_at - last_commit) / kMillisecond;
  return result;
}

struct OvertakingResult {
  uint64_t deferred = 0;
  double mean_wait_ms = 0;
  int violations = 0;
};

// Overtaking study: EU posts, US-East replies immediately; Asia receives
// both over a jittery WAN, so the reply often arrives first and must wait.
OvertakingResult RunOvertakingStudy(int trials, double jitter) {
  Harness h(1234, jitter);
  OvertakingResult result;
  for (int t = 0; t < trials; ++t) {
    const std::string photo = "photo" + std::to_string(t);
    const std::string comment = "comment" + std::to_string(t);
    bool committed = false;
    h.clients[1].Put(photo, "img", [&](Result<causal::WriteId> r) {
      EVC_CHECK(r.ok());
      committed = true;
    });
    h.StepUntil(committed);
    // US-East reads the photo as soon as it lands there, then comments.
    bool found = false;
    while (!found) {
      bool replied = false;
      h.clients[0].Get(photo, [&](Result<causal::CausalRead> r) {
        replied = true;
        found = r.ok() && r->found;
      });
      h.StepUntil(replied);
      if (!found) h.sim.RunFor(5 * kMillisecond);
    }
    bool commented = false;
    h.clients[0].Put(comment, "nice!", [&](Result<causal::WriteId> r) {
      EVC_CHECK(r.ok());
      commented = true;
    });
    h.StepUntil(commented);
    // Watch Asia until both are visible; any comment-without-photo instant
    // is a causality violation (there must be none).
    for (;;) {
      const bool p = h.cluster->LocalRead(h.dcs[2], photo).found;
      const bool c = h.cluster->LocalRead(h.dcs[2], comment).found;
      if (c && !p) ++result.violations;
      if (p && c) break;
      h.sim.RunFor(kMillisecond);
    }
  }
  const auto& stats = h.cluster->stats();
  result.deferred = stats.remote_deferred;
  result.mean_wait_ms =
      stats.dep_wait_us.count() ? stats.dep_wait_us.mean() / kMillisecond
                                : 0.0;
  return result;
}

}  // namespace

int main() {
  bench::Harness results("fig8_causal");
  results.Table("chains", {"depth", "mean_write_ms", "chain_visible_ms"});
  results.Table("overtaking", {"jitter", "trials", "deferred",
                               "mean_dep_wait_ms", "violations"});
  std::printf(
      "=== Fig. 8: causal+ comment threads across 3 DCs; overtaking on a "
      "jittery WAN\n(EU posts, US-East comments, Asia watches) ===\n");
  bool local_commit = true, visible_in_one_trip = true;
  for (int depth : {1, 2, 4, 8, 16}) {
    const ChainResult r = RunChain(depth, 40 + static_cast<uint64_t>(depth));
    results.Row("chains", {obs::Json(depth), obs::Json(r.mean_write_ms),
                           obs::Json(r.chain_visible_ms)});
    local_commit = local_commit && r.mean_write_ms < 1.0;
    visible_in_one_trip = visible_in_one_trip && r.chain_visible_ms < 150;
  }
  results.Claim("writes_commit_locally", local_commit,
                "writes commit locally: mean under 1 ms at every depth");
  results.Claim("chain_visible_in_one_trip", visible_in_one_trip,
                "each chain is visible everywhere within 150 ms of its last "
                "write: one trip of the 110 ms longest link, not two");

  const int trials = 100;
  bool overtaking_grows = true, no_violations = true;
  OvertakingResult prev;
  for (double jitter : {0.05, 0.50, 1.00}) {
    const OvertakingResult r = RunOvertakingStudy(trials, jitter);
    results.Row("overtaking",
                {obs::Json(jitter), obs::Json(trials), obs::Json(r.deferred),
                 obs::Json(r.mean_wait_ms), obs::Json(r.violations)});
    overtaking_grows = overtaking_grows && r.deferred > prev.deferred &&
                       r.mean_wait_ms > prev.mean_wait_ms;
    no_violations = no_violations && r.violations == 0;
    prev = r;
  }
  results.Claim("overtaking_grows_with_jitter", overtaking_grows,
                "as WAN jitter grows, more replies overtake their parents "
                "and the dependency check buffers them longer");
  results.Claim("zero_violations", no_violations,
                "no comment is ever visible without its photo");
  return results.Finish();
}

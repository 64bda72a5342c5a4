// Table 5 — Get-transactions (COPS-GT): consistent multi-key reads.
//
// Claim (after COPS-GT): per-key causal reads do not compose — two reads
// issued back-to-back can return a value together with a *pre-dependency*
// version of another key. The two-round get-transaction closes that gap,
// paying a second (local) round only when the first round actually caught
// an inconsistency.
//
// Setup: writer in the EU updates "photo" then (causally) "comment"; a
// reader in Asia repeatedly fetches the pair with plain sequential Gets and
// with GetTransaction, under increasing WAN jitter.

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "causal/causal_store.h"
#include "harness.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct TrialStats {
  int trials = 0;
  int plain_violations = 0;
  int gt_violations = 0;
  int gt_second_rounds = 0;
};

TrialStats Run(double jitter, int trials, uint64_t seed) {
  sim::Simulator sim(seed);
  auto latency = std::make_unique<sim::WanMatrixLatency>(
      sim::WanMatrixLatency::ThreeRegionBaseUs(), jitter);
  auto* wan = latency.get();
  sim::Network net(&sim, std::move(latency));
  sim::Rpc rpc(&net);
  causal::CausalCluster cluster(&rpc);
  auto dcs = cluster.AddDatacenters(3);
  for (int i = 0; i < 3; ++i) wan->AssignNode(dcs[i], i);
  const sim::NodeId writer_node = net.AddNode();
  wan->AssignNode(writer_node, 1);  // EU
  const sim::NodeId reader_node = net.AddNode();
  wan->AssignNode(reader_node, 2);  // Asia
  causal::CausalClient writer(&cluster, writer_node, dcs[1]);

  auto step_until = [&](const bool& flag) {
    while (!flag && sim.Step()) {
    }
    EVC_CHECK(flag);
  };
  auto violates = [](const causal::CausalRead& photo,
                     const causal::CausalRead& comment) {
    if (!comment.found) return false;
    for (const causal::Dependency& dep : comment.deps) {
      if (dep.key == "photo" && (!photo.found || photo.id < dep.id)) {
        return true;
      }
    }
    return false;
  };

  TrialStats stats;
  for (int t = 0; t < trials; ++t) {
    ++stats.trials;
    bool ok = false;
    writer.Put("photo", "img" + std::to_string(t),
               [&](Result<causal::WriteId> r) { ok = r.ok(); });
    step_until(ok);
    ok = false;
    writer.Get("photo", [&](Result<causal::CausalRead> r) { ok = r.ok(); });
    step_until(ok);
    ok = false;
    writer.Put("comment", "c" + std::to_string(t),
               [&](Result<causal::WriteId> r) { ok = r.ok(); });
    step_until(ok);

    // Sample the replication window: 8 paired fetches spaced 25 ms, with
    // plain sequential gets and a get-transaction at each sample point.
    bool plain_violated = false;
    bool any_would_violate = false;
    for (int probe = 0; probe < 8; ++probe) {
      std::optional<causal::CausalRead> photo, comment;
      bool got = false;
      cluster.Get(reader_node, dcs[2], "photo",
                  [&](Result<causal::CausalRead> r) {
                    got = true;
                    if (r.ok()) photo = *r;
                  });
      step_until(got);
      got = false;
      cluster.Get(reader_node, dcs[2], "comment",
                  [&](Result<causal::CausalRead> r) {
                    got = true;
                    if (r.ok()) comment = *r;
                  });
      step_until(got);
      const bool v = photo && comment && violates(*photo, *comment);
      plain_violated |= v;
      any_would_violate |= v;

      bool gt_got = false;
      std::vector<causal::CausalRead> gt;
      cluster.GetTransaction(reader_node, dcs[2], {"photo", "comment"},
                             [&](Result<std::vector<causal::CausalRead>> r) {
                               gt_got = true;
                               if (r.ok()) gt = std::move(*r);
                             });
      step_until(gt_got);
      if (gt.size() == 2 && violates(gt[0], gt[1])) ++stats.gt_violations;
      sim.RunFor(25 * kMillisecond);
    }
    if (plain_violated) ++stats.plain_violations;
    // Round 2 fires when round-1 caught an inconsistency — same condition
    // the plain reads expose.
    if (any_would_violate) ++stats.gt_second_rounds;
    sim.RunFor(50 * kMillisecond);
  }
  return stats;
}

}  // namespace

int main() {
  bench::Harness harness("tab5_get_transactions");
  harness.Table("jitter_sweep", {"jitter", "trials", "plain_violations",
                                 "gt_violations", "gt_second_rounds"});
  std::printf(
      "=== Table 5: plain pair-reads vs get-transactions (COPS-GT) ===\n"
      "writer EU -> photo then comment; reader Asia fetches the pair\n");
  bool plain_err = true, gt_clean = true;
  for (double jitter : {0.05, 0.50, 1.00, 2.00}) {
    const TrialStats s =
        Run(jitter, 150, 100 + static_cast<uint64_t>(jitter * 10));
    harness.Row("jitter_sweep",
                {obs::Json(jitter), obs::Json(s.trials),
                 obs::Json(s.plain_violations), obs::Json(s.gt_violations),
                 obs::Json(s.gt_second_rounds)});
    if (jitter >= 0.5) plain_err = plain_err && s.plain_violations > 0;
    gt_clean = gt_clean && s.gt_violations == 0;
  }
  harness.Claim("plain_reads_err_under_jitter", plain_err,
                "at WAN jitter 0.5 and above, plain pair-reads return "
                "causally inconsistent pairs");
  harness.Claim("get_transactions_never_err", gt_clean,
                "get-transactions return no inconsistent pair at any jitter "
                "level");
  return harness.Finish();
}

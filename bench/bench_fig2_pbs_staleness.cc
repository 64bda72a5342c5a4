// Fig. 2 — Probabilistically Bounded Staleness (PBS) curves.
//
// Claim (tutorial, citing Bailis et al.): partial quorums are "mostly
// consistent, most of the time": P(consistent read) starts high even at
// t=0, rises steeply within milliseconds, and the (R, W) choice shifts the
// whole curve; strict quorums (R+W>N) pin it at 1.0.
//
// Output: t-visibility curves for N=3 with every interesting (R, W), the
// 99.9%-visibility latency, and a k-staleness table.

#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "harness.h"
#include "stale/pbs.h"

using namespace evc;
using stale::PbsConfig;
using stale::PbsEstimator;
using stale::ShiftedExponential;

namespace {

PbsConfig Config(int r, int w) {
  PbsConfig c;
  c.n = 3;
  c.r = r;
  c.w = w;
  // LAN-style WARS fit: ~0.5 ms base one-way; write path has a heavier
  // tail than the read path (matches the PBS paper's production fits).
  c.w_latency = ShiftedExponential(500, 2500);
  c.a_latency = ShiftedExponential(500, 1000);
  c.r_latency = ShiftedExponential(500, 500);
  c.s_latency = ShiftedExponential(500, 500);
  return c;
}

}  // namespace

int main() {
  bench::Harness harness("fig2_pbs_staleness");
  harness.Table("t_visibility",
                {"r", "w", "t_ms", "p_consistent"});
  harness.Table("t999", {"r", "w", "t999_ms"});
  harness.Table("k_staleness", {"r", "w", "k", "p_within_k"});
  std::printf("=== Fig. 2: PBS t-visibility, N=3 (WARS Monte-Carlo) ===\n");
  const double ts_ms[] = {0, 1, 2, 5, 10, 20, 50, 100};

  const std::pair<int, int> configs[] = {{1, 1}, {1, 2}, {2, 1},
                                         {2, 2}, {1, 3}, {3, 1}};
  std::vector<double> r1w1;  // (1,1)'s p at each of ts_ms
  double r1w1_t999 = 0;
  bool shifts_up = true, strict_pinned = true;
  for (const auto& [r, w] : configs) {
    PbsEstimator pbs(Config(r, w), 1234);
    for (size_t i = 0; i < std::size(ts_ms); ++i) {
      const double p = pbs.ProbConsistent(ts_ms[i] * 1000, 20000);
      harness.Row("t_visibility", {obs::Json(r), obs::Json(w),
                                   obs::Json(ts_ms[i]), obs::Json(p)});
      if (r + w == 2) r1w1.push_back(p);
      if (r + w == 3) shifts_up = shifts_up && p >= r1w1[i];
      if (r + w > 3) strict_pinned = strict_pinned && p == 1.0;
    }
    const double t999_ms = pbs.TVisibility(0.999, 1e6, 64, 8000) / 1000.0;
    harness.Row("t999", {obs::Json(r), obs::Json(w), obs::Json(t999_ms)});
    if (r + w == 2) r1w1_t999 = t999_ms;
    if (r + w > 3) strict_pinned = strict_pinned && t999_ms == 0.0;
  }

  bool k_rises = true;
  for (const auto& [r, w] : std::vector<std::pair<int, int>>{{1, 1}, {2, 1}}) {
    PbsEstimator pbs(Config(r, w), 99);
    double prev = 0;
    for (int k : {1, 2, 3, 5}) {
      const double p = pbs.ProbKStaleness(k, 10000, 20000);
      harness.Row("k_staleness",
                  {obs::Json(r), obs::Json(w), obs::Json(k), obs::Json(p)});
      k_rises = k_rises && p >= prev;
      prev = p;
    }
  }
  harness.Claim("r1w1_mostly_consistent",
                r1w1[0] >= 0.5 && r1w1[0] <= 0.8 && r1w1_t999 < 100,
                "R=W=1 reads fresh with probability 0.5-0.8 at t=0 and "
                "passes 0.999 within tens of ms (t99.9 under 100 ms)");
  harness.Claim("raising_r_or_w_shifts_up", shifts_up,
                "at every t, R=1 W=2 and R=2 W=1 read fresh at least as "
                "often as R=W=1");
  harness.Claim("strict_quorums_pinned", strict_pinned,
                "every R+W>3 row reads fresh with probability exactly 1.0");
  harness.Claim("k_staleness_rises", k_rises,
                "P(read within the k newest versions) never falls as k grows");
  return harness.Finish();
}

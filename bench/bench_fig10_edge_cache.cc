// Fig. 10 — Edge cache: hit ratio vs client population, staleness vs TTL.
//
// Claim (tutorial §"rethinking" + Gray & Cheriton): a lease-based cache
// tier in front of the timeline store converts read flash crowds into
// local serves — hit ratio RISES with the client population, because a
// fixed set of edge nodes multiplexes the crowd and each invalidation's
// compulsory re-fetch is amortized over ever more reads — while the
// guarantee side never degrades: observed hit age stays bounded by the
// lease TTL, and no hit ever serves a version behind the master (the
// revoke-on-write gate makes that impossible, and this bench measures it
// with the omniscient VisibleSeqno oracle rather than trusting the proof).
//
// Setup: 3 timeline servers, 4 edge-cache nodes, one writer updating a
// hot key every ~200 ms. The population is N end-user request streams
// (80 % hot key / 20 % cold pool, ~30 ms think time) round-robined over
// the edges, for 10 s of virtual time. Grid: population {4, 16, 64} x
// lease TTL {50, 250, 1000} ms. Because the lease holders are the edges,
// not the users, write-side cost (revoke fan-out, gate latency) stays
// flat as the crowd grows — that is the point of a cache TIER over
// per-user leases.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/edge_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness.h"
#include "replication/timeline_store.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr sim::Time kRunFor = 10 * kSecond;
constexpr int kEdges = 4;
constexpr int kColdKeys = 8;

struct CellResult {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypasses = 0;
  uint64_t writes = 0;
  uint64_t revokes = 0;
  uint64_t version_stale_hits = 0;  ///< hits behind the master's seqno
  double hit_ratio = 0;
  double mean_read_ms = 0;
  double mean_write_ms = 0;
  double max_hit_age_ms = 0;
};

CellResult RunCell(int users, sim::Time ttl, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 12 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::TimelineOptions topt;
  topt.replication_factor = 3;
  // A gated write can legally wait out a full lease TTL; the write RPC
  // budget has to cover the largest TTL in the sweep.
  topt.rpc_timeout = 3 * kSecond;
  repl::TimelineCluster cluster(&rpc, topt);
  cluster.AddServers(3);
  cache::EdgeCacheOptions copt;
  copt.lease_ttl = ttl;
  cache::EdgeCacheTier tier(&rpc, &cluster, copt);

  std::vector<cache::EdgeCacheClient*> edges;
  for (int e = 0; e < kEdges; ++e) edges.push_back(tier.AddClient(net.AddNode()));

  const std::string hot = "hot";
  std::vector<std::string> cold;
  for (int i = 0; i < kColdKeys; ++i) cold.push_back("cold" + std::to_string(i));

  bool running = true;
  Rng root(seed ^ 0xf160caceULL);
  OnlineStats read_lat, write_lat;
  CellResult result;
  double max_hit_age = 0;

  // One Rng per user stream; user i sends through edge i % kEdges.
  std::vector<Rng> streams;
  streams.reserve(static_cast<size_t>(users));
  for (int i = 0; i < users; ++i) streams.push_back(root.Fork(static_cast<uint64_t>(i)));
  std::function<void(int)> read_loop = [&](int i) {
    if (!running) return;
    Rng& rng = streams[static_cast<size_t>(i)];
    const std::string key =
        rng.NextBool(0.8) ? hot : cold[rng.NextBounded(kColdKeys)];
    const sim::Time start = sim.Now();
    cache::EdgeCacheClient* edge = edges[static_cast<size_t>(i % kEdges)];
    edge->Get(key, 0, [&, i, key, start](Result<cache::CachedRead> r) {
      if (r.ok()) {
        read_lat.Add(static_cast<double>(sim.Now() - start));
        if (r->from_cache) {
          const double age = static_cast<double>(sim.Now() - r->fetched_at);
          max_hit_age = std::max(max_hit_age, age);
          // Omniscient staleness oracle: a hit is version-stale iff the
          // master has applied a seqno beyond the one served. The lease
          // protocol promises this never happens.
          if (cluster.VisibleSeqno(cluster.MasterOf(key), key) > r->seqno) {
            ++result.version_stale_hits;
          }
        }
      }
      sim.ScheduleAfter(
          static_cast<sim::Time>(streams[static_cast<size_t>(i)].NextExponential(
              30.0 * kMillisecond)) +
              1,
          [&, i] { read_loop(i); });
    });
  };
  for (int i = 0; i < users; ++i) {
    sim.ScheduleAfter(
        static_cast<sim::Time>(
            streams[static_cast<size_t>(i)].NextExponential(30.0 *
                                                            kMillisecond)) +
            1,
        [&, i] { read_loop(i); });
  }

  const sim::NodeId writer = net.AddNode();
  Rng wrng = root.Fork(0xfeedULL);
  int wn = 0;
  std::function<void()> write_loop = [&] {
    if (!running) return;
    const sim::Time start = sim.Now();
    const std::string value = "w" + std::to_string(wn++);
    // evc-lint: allow(discarded-status) reason=void callback API; name collides with Status Write() elsewhere
    cluster.Write(writer, hot, value, [&, start](Result<uint64_t> r) {
      if (r.ok()) {
        ++result.writes;
        write_lat.Add(static_cast<double>(sim.Now() - start));
      }
      sim.ScheduleAfter(
          static_cast<sim::Time>(wrng.NextExponential(200.0 * kMillisecond)) +
              1,
          [&] { write_loop(); });
    });
  };
  sim.ScheduleAfter(100 * kMillisecond, [&] { write_loop(); });

  sim.RunFor(kRunFor);
  running = false;
  sim.RunFor(5 * kSecond);  // drain in-flight ops and gated writes

  result.hits = tier.stats().hits;
  result.misses = tier.stats().misses;
  result.bypasses = tier.stats().bypasses;
  result.revokes = tier.stats().revokes_sent;
  const uint64_t lookups = result.hits + result.misses + result.bypasses;
  result.hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(result.hits) /
                         static_cast<double>(lookups);
  result.mean_read_ms = read_lat.mean() / kMillisecond;
  result.mean_write_ms = write_lat.mean() / kMillisecond;
  result.max_hit_age_ms = max_hit_age / kMillisecond;
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("fig10_edge_cache");
  harness.Table("grid", {"clients", "ttl_ms", "hit_ratio", "mean_read_ms",
                         "mean_write_ms", "revokes_per_write",
                         "max_hit_age_ms", "version_stale_hits"});
  std::printf(
      "=== Fig. 10: lease-based edge cache over the timeline store ===\n"
      "3 servers; %d edge nodes; hot-key writer every ~200ms; N user\n"
      "streams 80%% hot / 20%% cold; 10s virtual time per cell\n",
      kEdges);

  const int populations[] = {4, 16, 64};
  const sim::Time ttls[] = {50 * kMillisecond, 250 * kMillisecond,
                            1000 * kMillisecond};
  uint64_t stale_total = 0;
  double worst_age_over_ttl = 0;
  double hit_at_prev_ttl[std::size(populations)] = {};  // by population
  double hit_ratio_c64 = 0;
  bool rises_with_clients = true, rises_with_ttl = true;
  bool revokes_capped = true, writes_flat = true;
  for (const sim::Time ttl : ttls) {
    double prev_hit = 0, first_write_ms = 0;
    for (size_t p = 0; p < std::size(populations); ++p) {
      const int clients = populations[p];
      const uint64_t seed =
          1000 + static_cast<uint64_t>(clients) +
          static_cast<uint64_t>(ttl / kMillisecond) * 1000;
      const CellResult r = RunCell(clients, ttl, seed);
      const double ttl_ms = static_cast<double>(ttl) / kMillisecond;
      const double rev_per_write =
          r.writes == 0 ? 0.0
                        : static_cast<double>(r.revokes) /
                              static_cast<double>(r.writes);
      stale_total += r.version_stale_hits;
      worst_age_over_ttl =
          std::max(worst_age_over_ttl, r.max_hit_age_ms / ttl_ms);
      harness.Row("grid",
                  {obs::Json(clients), obs::Json(ttl_ms),
                   obs::Json(r.hit_ratio), obs::Json(r.mean_read_ms),
                   obs::Json(r.mean_write_ms), obs::Json(rev_per_write),
                   obs::Json(r.max_hit_age_ms),
                   obs::Json(r.version_stale_hits)});
      if (ttl == 250 * kMillisecond) {
        harness.Metric("hit_ratio_c" + std::to_string(clients), r.hit_ratio);
        if (clients == 64) hit_ratio_c64 = r.hit_ratio;
      }
      rises_with_clients = rises_with_clients && r.hit_ratio > prev_hit;
      rises_with_ttl = rises_with_ttl && r.hit_ratio > hit_at_prev_ttl[p];
      prev_hit = hit_at_prev_ttl[p] = r.hit_ratio;
      revokes_capped = revokes_capped && rev_per_write <= kEdges;
      if (first_write_ms == 0) first_write_ms = r.mean_write_ms;
      writes_flat = writes_flat && r.mean_write_ms <= 1.25 * first_write_ms;
    }
  }
  harness.Metric("version_stale_hits_total",
                 static_cast<double>(stale_total));
  harness.Metric("worst_hit_age_over_ttl", worst_age_over_ttl);
  harness.Claim("hit_ratio_rises_with_clients", rises_with_clients,
                "at every TTL the hit ratio rises with the population: a "
                "bigger crowd amortizes each invalidation's re-fetch");
  harness.Claim("hit_ratio_rises_with_ttl", rises_with_ttl,
                "at every population the hit ratio rises with the lease TTL");
  harness.Claim("hit_ratio_c64_floor", hit_ratio_c64 >= 0.80,
                "at 64 clients and a 250 ms TTL (hit_ratio_c64) the hit "
                "ratio is at least 0.80; below it, lease serves stopped "
                "scaling with the crowd");
  harness.Claim("hits_within_ttl", worst_age_over_ttl <= 1.0,
                "no cache hit is older than its lease TTL");
  harness.Claim("no_version_stale_hits", stale_total == 0,
                "no hit is ever behind the master's version");
  harness.Claim("write_cost_flat", revokes_capped && writes_flat,
                "leases are per edge: revokes per write never exceed the 4 "
                "edges, and mean write latency stays within 1.25x of 4 "
                "clients' at every TTL");
  return harness.Finish();
}

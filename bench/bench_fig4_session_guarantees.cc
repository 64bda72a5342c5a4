// Fig. 4 — Session guarantees: anomalies prevented, and at what cost.
//
// Claim (tutorial, after Bayou): eventual consistency breaks per-session
// promises (read-your-writes, monotonic reads) at measurable rates; the
// session-guarantee mechanism eliminates those anomalies entirely for the
// modest price of occasionally retrying against a fresher server.
//
// Setup: N=3 R=1 W=1 quorum store; every write leaves one replica stale
// (crash-during-write), every read races the stale replica. 300 write+read
// pairs per configuration.

#include <cstdio>
#include <memory>
#include <optional>

#include "common/stats.h"
#include "harness.h"
#include "session/session.h"

using namespace evc;
using session::Session;
using session::SessionOptions;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct CellResult {
  uint64_t ryw_violations = 0;
  uint64_t mr_violations = 0;
  uint64_t retries = 0;
  double mean_read_ms = 0;
  int stale_values_served = 0;
};

CellResult RunCell(bool guarantees_on, uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 30 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 1;
  config.write_quorum = 1;
  config.sloppy = false;
  repl::DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(3);
  const sim::NodeId client = net.AddNode();

  SessionOptions opts;
  opts.read_your_writes = guarantees_on;
  opts.monotonic_reads = guarantees_on;
  opts.monotonic_writes = guarantees_on;
  opts.writes_follow_reads = guarantees_on;
  opts.retry_interval = 20 * kMillisecond;
  Session session(&cluster, &sim, client, servers, opts);

  CellResult result;
  OnlineStats read_latency;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "key" + std::to_string(i % 10);
    const std::string value = "v" + std::to_string(i);
    // Crash a non-coordinator preference replica around the write so it
    // stays stale.
    const auto pref = cluster.PreferenceList(key);
    const sim::NodeId victim = pref[2] == servers[0] ? pref[1] : pref[2];
    net.SetNodeUp(victim, false);
    bool put_ok = false;
    session.Put(key, value, [&](Result<Version> r) { put_ok = r.ok(); });
    sim.RunFor(5 * kSecond);
    net.SetNodeUp(victim, true);
    if (!put_ok) continue;

    const sim::Time start = sim.Now();
    sim::Time done_at = -1;
    bool saw_own_write = false;
    bool read_ok = false;
    session.Get(key, [&](Result<repl::ReadResult> r) {
      done_at = sim.Now();
      read_ok = r.ok();
      if (r.ok()) {
        for (const auto& v : r->versions) saw_own_write |= v.value == value;
      }
    });
    sim.RunFor(30 * kSecond);
    if (read_ok) {
      read_latency.Add(static_cast<double>(done_at - start));
      if (!saw_own_write) ++result.stale_values_served;
    }
  }
  result.ryw_violations = session.stats().ryw_violations_detected;
  result.mr_violations = session.stats().mr_violations_detected;
  result.retries = session.stats().guarantee_retries;
  result.mean_read_ms = read_latency.mean() / kMillisecond;
  return result;
}

}  // namespace

int main() {
  bench::Harness harness("fig4_session_guarantees");
  harness.Table("cells", {"guarantees", "ryw_anomalies", "mr_anomalies",
                          "retries", "stale_served", "mean_read_ms"});
  std::printf(
      "=== Fig. 4: session guarantees on an N=3, R=W=1 store ===\n"
      "300 write-then-read pairs; one replica left stale per write\n");
  const CellResult off = RunCell(false, 22);
  const CellResult on = RunCell(true, 21);
  for (const CellResult* r : {&off, &on}) {
    harness.Row("cells",
                {obs::Json(r == &on ? "enforced" : "off"),
                 obs::Json(r->ryw_violations), obs::Json(r->mr_violations),
                 obs::Json(r->retries), obs::Json(r->stale_values_served),
                 obs::Json(r->mean_read_ms)});
  }
  harness.Claim("off_serves_stale", off.stale_values_served > 0,
                "with guarantees off the store serves stale reads (anomalies "
                "are detected, never prevented)");
  harness.Claim("enforced_serves_none", on.stale_values_served == 0,
                "with guarantees enforced no stale read is served");
  harness.Claim("enforcement_costs_retries",
                on.retries > 0 && on.mean_read_ms > off.mean_read_ms,
                "enforcement costs retries and a higher mean read latency");
  return harness.Finish();
}

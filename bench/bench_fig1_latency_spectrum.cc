// Fig. 1 — The latency/consistency spectrum under geo-replication.
//
// Claim (tutorial): operation latency grows as the consistency guarantee
// strengthens: local-commit protocols (eventual, causal) complete at
// intra-DC latency; quorum protocols pay one WAN round trip; primary-copy
// writes pay the trip to the master; consensus pays a full WAN consensus
// round. The *ratios* (~1-2 orders of magnitude between the ends of the
// dial) are the reproduction target, not absolute numbers.
//
// Setup: 3-datacenter WAN (US-East, EU, Asia), one storage server per DC,
// a closed-loop YCSB-B client in each DC, 200 ops per (level, client-DC).

#include <cstdio>

#include "core/replicated_store.h"
#include "harness.h"
#include "workload/workload.h"

using namespace evc;
using core::ConsistencyLevel;
using core::ConsistencyLevelToString;
using core::ReplicatedStore;
using core::StoreOptions;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Row {
  double put_p50, put_p99, get_p50, get_p99;
  uint64_t failures;
};

Row RunCell(ConsistencyLevel level, int client_dc) {
  StoreOptions options;
  options.level = level;
  options.datacenters = 3;
  options.seed = 42 + static_cast<uint64_t>(client_dc);
  ReplicatedStore store(options);
  const sim::NodeId client = store.AddClient(client_dc);

  workload::WorkloadConfig wl = workload::WorkloadConfig::YcsbB();
  wl.record_count = 100;
  wl.value_size = 64;
  workload::WorkloadGenerator gen(wl, 7);

  // Preload a few records so reads hit.
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    store.Put(client, gen.KeyFor(i), "seed", [&](Status) { done = true; });
    store.RunFor(10 * kSecond);
    EVC_CHECK(done);
  }

  for (int i = 0; i < 200; ++i) {
    const workload::Op op = gen.Next();
    bool done = false;
    if (op.type == workload::OpType::kRead) {
      store.Get(client, op.key,
                [&](Result<std::string>) { done = true; });
    } else {
      store.Put(client, op.key, op.value, [&](Status) { done = true; });
    }
    store.RunFor(10 * kSecond);
    EVC_CHECK(done);
  }

  return Row{store.put_latency().Percentile(0.50),
             store.put_latency().Percentile(0.99),
             store.get_latency().Percentile(0.50),
             store.get_latency().Percentile(0.99),
             store.puts_failed() + store.gets_failed()};
}

}  // namespace

int main() {
  bench::Harness harness("fig1_latency_spectrum");
  harness.Note("setup", "3-DC WAN, YCSB-B, 200 ops per (level, client DC)");
  harness.Table("latency", {"level", "client_dc", "put_p50_ms", "put_p99_ms",
                            "get_p50_ms", "get_p99_ms", "failures"});
  std::printf(
      "=== Fig. 1: latency vs consistency level (3-DC WAN, YCSB-B) ===\n"
      "latencies in ms of virtual time; client closed-loop in its home DC\n");

  const ConsistencyLevel levels[] = {
      ConsistencyLevel::kEventual, ConsistencyLevel::kCausal,
      ConsistencyLevel::kTimeline, ConsistencyLevel::kQuorum,
      ConsistencyLevel::kStrong};
  const char* dc_names[] = {"US-East", "EU", "Asia"};
  double put[5][3] = {}, get[5][3] = {};  // p50 ms by [level][client DC]
  for (int l = 0; l < 5; ++l) {
    for (int dc = 0; dc < 3; ++dc) {
      const Row row = RunCell(levels[l], dc);
      put[l][dc] = row.put_p50 / kMillisecond;
      get[l][dc] = row.get_p50 / kMillisecond;
      harness.Row("latency",
                  {obs::Json(ConsistencyLevelToString(levels[l])),
                   obs::Json(dc_names[dc]), obs::Json(put[l][dc]),
                   obs::Json(row.put_p99 / kMillisecond),
                   obs::Json(get[l][dc]),
                   obs::Json(row.get_p99 / kMillisecond),
                   obs::Json(row.failures)});
    }
  }
  const double *eventual = put[0], *causal = put[1], *quorum = put[3],
               *strong = put[4], *timeline_get = get[2];
  bool local = true, ordered = true, timeline_reads_local = true;
  for (int dc = 0; dc < 3; ++dc) {
    local = local && eventual[dc] < 2 && causal[dc] < 2;
    ordered = ordered && causal[dc] < eventual[dc] &&
              eventual[dc] < quorum[dc] && quorum[dc] <= strong[dc];
    timeline_reads_local = timeline_reads_local && timeline_get[dc] < 2;
  }
  harness.Claim("local_commit", local,
                "eventual and causal put p50 is under 2 ms in every DC");
  harness.Claim("put_p50_order", ordered,
                "in every DC, put p50 is causal < eventual < quorum <= strong");
  harness.Claim("timeline_reads_local", timeline_reads_local,
                "timeline reads stay local: get p50 under 2 ms in every DC");
  harness.Claim("strong_pays_leader_distance",
                strong[0] < strong[1] && strong[1] < strong[2],
                "strong put p50 grows with the distance to the leader in "
                "US-East: US-East < EU < Asia");
  return harness.Finish();
}

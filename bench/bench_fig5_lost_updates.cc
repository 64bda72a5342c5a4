// Fig. 5 — Lost updates under contention: LWW vs siblings vs CRDT.
//
// Claim (tutorial): under concurrent writes, last-writer-wins silently
// drops updates at a rate that grows with contention; multi-value siblings
// preserve every update but push merge work to the application; a CRDT
// (OR-Set cart) loses nothing and needs no application merge.
//
// Setup: C concurrent clients each add one distinct item to a shared cart
// through different coordinators (all writes concurrent), then the system
// converges. Metric: fraction of added items still present.

#include <cstdio>
#include <memory>
#include <vector>

#include "crdt/orset.h"
#include "harness.h"
#include "replication/quorum_store.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

// Runs C concurrent blind cart-adds under the given conflict policy.
// Returns (items surviving, sibling count at read time).
std::pair<int, size_t> RunQuorumCart(ConflictPolicy policy, int concurrency,
                                     uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 20 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 3;  // full read so we see the converged state
  config.write_quorum = 1;
  config.sloppy = false;
  config.storage.store.conflict_policy = policy;
  repl::DynamoCluster cluster(&rpc, config);
  const int servers_count = std::max(3, concurrency);
  auto servers = cluster.AddServers(servers_count);

  // Every client reads the (empty) cart, then writes "cart + its item":
  // read-modify-write without coordination — the update-in-place idiom.
  std::vector<sim::NodeId> clients;
  for (int c = 0; c < concurrency; ++c) clients.push_back(net.AddNode());
  int completed = 0;
  for (int c = 0; c < concurrency; ++c) {
    const std::string item = "item" + std::to_string(c);
    cluster.Put(clients[c], servers[c % servers_count], "cart", item, {},
                [&](Result<Version> r) {
                  if (r.ok()) ++completed;
                });
  }
  sim.RunFor(10 * kSecond);
  EVC_CHECK(completed == concurrency);

  // Converge via full read + read repair, twice.
  repl::ReadResult merged;
  for (int round = 0; round < 2; ++round) {
    cluster.Get(clients[0], servers[0], "cart",
                [&](Result<repl::ReadResult> r) {
                  if (r.ok()) merged = *r;
                });
    sim.RunFor(5 * kSecond);
  }
  int survivors = 0;
  for (int c = 0; c < concurrency; ++c) {
    const std::string item = "item" + std::to_string(c);
    for (const auto& v : merged.versions) {
      if (v.value == item) {
        ++survivors;
        break;
      }
    }
  }
  return {survivors, merged.versions.size()};
}

// The CRDT cart: one OrSwot replica per client, merged pairwise.
int RunCrdtCart(int concurrency) {
  std::vector<crdt::OrSwot> replicas;
  for (int c = 0; c < concurrency; ++c) {
    replicas.emplace_back(static_cast<uint32_t>(c));
    replicas.back().Add("item" + std::to_string(c));
  }
  for (int round = 0; round < 2; ++round) {
    for (auto& a : replicas) {
      for (auto& b : replicas) a.Merge(b);
    }
  }
  int survivors = 0;
  for (int c = 0; c < concurrency; ++c) {
    if (replicas[0].Contains("item" + std::to_string(c))) ++survivors;
  }
  return survivors;
}

}  // namespace

int main() {
  bench::Harness harness("fig5_lost_updates");
  harness.Table("survivors",
                {"concurrency", "lww_survivors", "lww_siblings",
                 "siblings_survivors", "siblings_siblings", "crdt_survivors"});
  std::printf(
      "=== Fig. 5: surviving updates after C concurrent cart adds ===\n");
  bool lww_keeps_one = true, siblings_keep_all = true, crdt_keeps_all = true;
  for (int c : {2, 4, 8, 16, 32}) {
    auto [lww_survivors, lww_siblings] =
        RunQuorumCart(ConflictPolicy::kLastWriterWins, c, 100 + c);
    auto [sib_survivors, sib_siblings] =
        RunQuorumCart(ConflictPolicy::kSiblings, c, 200 + c);
    const int crdt_survivors = RunCrdtCart(c);
    harness.Row("survivors",
                {obs::Json(c), obs::Json(lww_survivors),
                 obs::Json(static_cast<uint64_t>(lww_siblings)),
                 obs::Json(sib_survivors),
                 obs::Json(static_cast<uint64_t>(sib_siblings)),
                 obs::Json(crdt_survivors)});
    lww_keeps_one = lww_keeps_one && lww_survivors == 1;
    siblings_keep_all = siblings_keep_all && sib_survivors == c &&
                        sib_siblings == static_cast<size_t>(c);
    crdt_keeps_all = crdt_keeps_all && crdt_survivors == c;
  }
  harness.Claim("lww_keeps_one", lww_keeps_one,
                "last-writer-wins keeps exactly one of C concurrent adds");
  harness.Claim("siblings_keep_all", siblings_keep_all,
                "the siblings policy keeps all C adds, as C siblings for the "
                "application to merge");
  harness.Claim("orset_keeps_all", crdt_keeps_all,
                "the OR-set keeps all C adds with no application merge");
  return harness.Finish();
}

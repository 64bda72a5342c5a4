// Ablation 3 — key placement: modulo walk vs consistent hashing w/ vnodes.
//
// The tutorial's partitioning discussion motivates Dynamo's consistent-hash
// ring: (a) load balance across servers, tunable by virtual-node count, and
// (b) minimal key movement when membership changes (modulo placement
// remaps nearly everything).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "harness.h"
#include "replication/hash_ring.h"

using namespace evc;
using repl::HashRing;

namespace {

// Primary ownership imbalance: hottest server's share / fair share.
double Imbalance(const std::map<sim::NodeId, int>& owned, int keys,
                 int servers) {
  int max_owned = 0;
  for (const auto& [node, count] : owned) {
    max_owned = std::max(max_owned, count);
  }
  return static_cast<double>(max_owned) / (static_cast<double>(keys) / servers);
}

void BalanceSweep(bench::Harness* out) {
  const int keys = 50000;
  const int servers = 8;
  // Modulo placement is perfectly balanced by construction over a uniform
  // keyspace — its problem is remapping, shown in (b).
  {
    std::map<sim::NodeId, int> owned;
    for (int i = 0; i < keys; ++i) {
      owned[Fnv1a64("key" + std::to_string(i)) % servers]++;
    }
    out->Row("balance",
             {obs::Json("modulo"), obs::Json(Imbalance(owned, keys, servers))});
  }
  double one_vnode = 0;
  double prev = 1e18;
  bool falls = true;
  for (int vnodes : {1, 4, 16, 64, 256}) {
    HashRing ring(vnodes);
    for (sim::NodeId n = 0; n < servers; ++n) ring.AddServer(n);
    std::map<sim::NodeId, int> owned;
    for (int i = 0; i < keys; ++i) {
      owned[ring.PrimaryFor("key" + std::to_string(i))]++;
    }
    const double imbalance = Imbalance(owned, keys, servers);
    out->Row("balance", {obs::Json("ring vnodes=" + std::to_string(vnodes)),
                         obs::Json(imbalance)});
    if (vnodes == 1) one_vnode = imbalance;
    falls = falls && imbalance < prev;
    prev = imbalance;
  }
  out->Claim("one_vnode_overloads", one_vnode >= 2.0,
             "with 1 vnode per server the hottest of 8 servers owns at "
             "least 2x its fair share of primaries");
  out->Claim("imbalance_falls_with_vnodes", falls,
             "the imbalance falls at each step from 1 to 256 vnodes");
}

void RemapSweep(bench::Harness* out) {
  const int keys = 50000;
  int modulo_moved = 0;
  for (int i = 0; i < keys; ++i) {
    const uint64_t h = Fnv1a64("key" + std::to_string(i));
    if (h % 8 != h % 9) ++modulo_moved;
  }
  out->Row("remap", {obs::Json("modulo"), obs::Json(modulo_moved),
                     obs::Json(100.0 * modulo_moved / keys)});
  HashRing ring(64);
  for (sim::NodeId n = 0; n < 8; ++n) ring.AddServer(n);
  std::vector<sim::NodeId> before(keys);
  for (int i = 0; i < keys; ++i) {
    before[i] = ring.PrimaryFor("key" + std::to_string(i));
  }
  ring.AddServer(8);
  int ring_moved = 0;
  for (int i = 0; i < keys; ++i) {
    if (ring.PrimaryFor("key" + std::to_string(i)) != before[i]) ++ring_moved;
  }
  out->Row("remap", {obs::Json("ring vnodes=64"), obs::Json(ring_moved),
                     obs::Json(100.0 * ring_moved / keys)});
  out->Claim("ring_remaps_few",
             modulo_moved > keys * 8 / 10 && ring_moved < keys * 2 / 10,
             "adding a 9th server remaps over 80% of keys under modulo "
             "placement (~8/9) and under 20% on a 64-vnode ring (~1/9)");
}

}  // namespace

int main() {
  bench::Harness harness("abl3_placement");
  harness.Table("balance", {"placement", "max_over_fair"});
  harness.Table("remap", {"placement", "moved", "moved_pct"});
  std::printf(
      "=== Ablation 3: key placement schemes, 8 servers, 50k keys ===\n");
  BalanceSweep(&harness);
  RemapSweep(&harness);
  return harness.Finish();
}

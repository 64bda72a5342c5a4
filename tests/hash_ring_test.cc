#include "replication/hash_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "replication/quorum_store.h"

namespace evc::repl {
namespace {

TEST(HashRingTest, SingleServerOwnsEverything) {
  HashRing ring(8);
  ring.AddServer(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.PrimaryFor("key" + std::to_string(i)), 7u);
  }
}

TEST(HashRingTest, PreferenceListDistinctAndDeterministic) {
  HashRing ring(16);
  for (sim::NodeId n = 0; n < 10; ++n) ring.AddServer(n);
  const auto a = ring.PreferenceList("some-key", 3);
  const auto b = ring.PreferenceList("some-key", 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  std::set<sim::NodeId> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(HashRingTest, RequestingMoreThanServersClamps) {
  HashRing ring(4);
  ring.AddServer(1);
  ring.AddServer(2);
  EXPECT_EQ(ring.PreferenceList("k", 5).size(), 2u);
}

TEST(HashRingTest, VirtualNodesBalanceLoad) {
  // With 1 vnode per server, arc lengths vary wildly; with 128, primary
  // ownership approaches uniform.
  auto imbalance = [](int vnodes) {
    HashRing ring(vnodes);
    for (sim::NodeId n = 0; n < 8; ++n) ring.AddServer(n);
    std::map<sim::NodeId, int> owned;
    const int keys = 20000;
    for (int i = 0; i < keys; ++i) {
      ++owned[ring.PrimaryFor("key" + std::to_string(i))];
    }
    int max_owned = 0;
    for (const auto& [node, count] : owned) {
      max_owned = std::max(max_owned, count);
    }
    // Ratio of the hottest server's share to the fair share.
    return static_cast<double>(max_owned) / (keys / 8.0);
  };
  const double one_vnode = imbalance(1);
  const double many_vnodes = imbalance(128);
  EXPECT_GT(one_vnode, many_vnodes);
  // Variance of arc lengths shrinks ~1/sqrt(vnodes): expect well under 2x
  // the fair share at 128 vnodes (typically ~1.2-1.4x), versus often 3-4x
  // with a single vnode.
  EXPECT_LT(many_vnodes, 1.6);
  EXPECT_GT(one_vnode, 1.6);
}

TEST(HashRingTest, AddingServerRemapsOnlyAFraction) {
  HashRing ring(64);
  for (sim::NodeId n = 0; n < 10; ++n) ring.AddServer(n);
  std::map<std::string, sim::NodeId> before;
  const int keys = 5000;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = ring.PrimaryFor(key);
  }
  ring.AddServer(10);
  int moved = 0;
  for (const auto& [key, owner] : before) {
    if (ring.PrimaryFor(key) != owner) ++moved;
  }
  // Consistent hashing: ~1/11 of keys move to the new server; far from the
  // ~10/11 a modulo scheme would remap.
  const double fraction = static_cast<double>(moved) / keys;
  EXPECT_GT(fraction, 0.03);
  EXPECT_LT(fraction, 0.20);
  // And every moved key moved TO the new server.
  for (const auto& [key, owner] : before) {
    const sim::NodeId now = ring.PrimaryFor(key);
    if (now != owner) {
      EXPECT_EQ(now, 10u) << key;
    }
  }
}

// A server leaves by being left out of the next epoch's ring, as
// DynamoCluster::RingWalkAt builds each epoch's ring from its members.
TEST(HashRingTest, RemovingServerSpillsToSuccessors) {
  HashRing ring(64), without(64);
  for (sim::NodeId n = 0; n < 5; ++n) {
    ring.AddServer(n);
    if (n != 2) without.AddServer(n);
  }
  std::map<std::string, sim::NodeId> before;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = ring.PrimaryFor(key);
  }
  for (const auto& [key, owner] : before) {
    const sim::NodeId now = without.PrimaryFor(key);
    if (owner != 2) {
      EXPECT_EQ(now, owner) << key;  // unaffected keys stay put
    } else {
      EXPECT_NE(now, 2u) << key;
    }
  }
}

TEST(HashRingDynamoTest, ClusterWorksWithRingPlacement) {
  sim::Simulator sim(3);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * sim::kMillisecond));
  sim::Rpc rpc(&net);
  QuorumConfig config;
  config.use_hash_ring = true;
  DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(8);
  const sim::NodeId client = net.AddNode();
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    cluster.Put(client, servers[i % 8], "key" + std::to_string(i), "v", {},
                [&](Result<Version> r) {
                  ASSERT_TRUE(r.ok());
                  ++completed;
                });
  }
  sim.RunFor(10 * sim::kSecond);
  EXPECT_EQ(completed, 30);
  for (int i = 0; i < 30; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_TRUE(cluster.ReplicasConverged(key)) << key;
    // Preference list agrees with the standalone ring semantics.
    const auto pref = cluster.PreferenceList(key);
    EXPECT_EQ(pref.size(), 3u);
    std::set<sim::NodeId> distinct(pref.begin(), pref.end());
    EXPECT_EQ(distinct.size(), 3u);
  }
}

// Regression: two servers' vnodes can hash to the same ring point. The old
// AddServer silently overwrote the first owner's point, handing its arc to
// the second server. A narrowed point space (mask 0xFF: 128 vnodes into 256
// slots) forces collisions.
TEST(HashRingTest, VnodeCollisionsAreReprobedNotOverwritten) {
  HashRing ring(64, /*point_mask=*/0xFF);
  ring.AddServer(1);
  ring.AddServer(2);
  // Every vnode of both servers is on the ring: nothing was overwritten.
  EXPECT_EQ(ring.point_count(), 128u);
}

TEST(HashRingTest, ReprobedRingStillServesDistinctPreferenceLists) {
  HashRing ring(32, /*point_mask=*/0xFF);
  for (sim::NodeId n = 1; n <= 5; ++n) ring.AddServer(n);
  EXPECT_EQ(ring.point_count(), 5u * 32u);
  for (int i = 0; i < 50; ++i) {
    const auto pref = ring.PreferenceList("k" + std::to_string(i), 3);
    ASSERT_EQ(pref.size(), 3u);
    std::set<sim::NodeId> distinct(pref.begin(), pref.end());
    EXPECT_EQ(distinct.size(), 3u);
  }
}

TEST(HashRingTest, ShortKeysSpreadAcrossTheRing) {
  // Regression: ring positions must be post-mixed. Raw FNV-1a of an n-byte
  // key only spans ~2^(40+lg n) of the 2^64 point space, so every short key
  // ("k0".."k9" — exactly the fuzz keyspace) used to land on one arc and
  // the whole keyspace collapsed onto a single preference list.
  HashRing ring(64);
  for (sim::NodeId n = 0; n < 8; ++n) ring.AddServer(n);
  std::set<sim::NodeId> primaries;
  for (int i = 0; i < 10; ++i) {
    primaries.insert(ring.PrimaryFor("k" + std::to_string(i)));
  }
  EXPECT_GT(primaries.size(), 1u) << "all short keys on one arc";
}

TEST(HashRingTest, RemapDeltaBoundedOnJoin) {
  // The consistent-hashing contract across a membership change: when a
  // server joins an n-server ring, only about a 1/(n+1) share of keys may
  // change primary, every moved key must move TO the newcomer, and keys
  // that stay put must keep their whole ownership walk (untouched ranges
  // keep ownership order — the property epoch migration relies on to move
  // only the delta).
  const int kKeys = 20000;
  const int kServers = 8;
  HashRing ring(64);
  for (sim::NodeId n = 0; n < kServers; ++n) ring.AddServer(n);
  std::vector<sim::NodeId> before_primary(kKeys);
  std::vector<std::vector<sim::NodeId>> before_walk(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    before_primary[i] = ring.PrimaryFor(key);
    before_walk[i] = ring.PreferenceList(key, 3);
  }
  const sim::NodeId newcomer = 100;
  ring.AddServer(newcomer);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    const sim::NodeId primary = ring.PrimaryFor(key);
    if (primary != before_primary[i]) {
      ++moved;
      EXPECT_EQ(primary, newcomer) << "key moved to a non-joining server";
    }
    // A walk that does not include the newcomer was untouched by the join
    // and must be byte-identical to the old ownership order.
    const auto walk = ring.PreferenceList(key, 3);
    if (std::find(walk.begin(), walk.end(), newcomer) == walk.end()) {
      EXPECT_EQ(walk, before_walk[i]) << "untouched range reordered";
    }
  }
  // Fair share is kKeys/(n+1); allow 50% headroom for vnode arc variance.
  const double fair = static_cast<double>(kKeys) / (kServers + 1);
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, static_cast<int>(fair * 1.5))
      << "join moved far more than the newcomer's fair share";
}

TEST(HashRingTest, RemapDeltaBoundedOnLeave) {
  // Removal is symmetric: only keys the leaver owned may move, and they
  // must fall to the clockwise successors already next in their walk. The
  // leaver is gone from the next epoch's ring, which is built without it.
  const int kKeys = 20000;
  const sim::NodeId leaver = 3;
  HashRing ring(64), without(64);
  for (sim::NodeId n = 0; n < 8; ++n) {
    ring.AddServer(n);
    if (n != leaver) without.AddServer(n);
  }
  std::vector<sim::NodeId> before_primary(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    before_primary[i] = ring.PrimaryFor("key" + std::to_string(i));
  }
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const sim::NodeId primary = without.PrimaryFor("key" + std::to_string(i));
    if (primary != before_primary[i]) {
      ++moved;
      EXPECT_EQ(before_primary[i], leaver)
          << "a key not owned by the leaver moved";
    }
  }
  const double fair = static_cast<double>(kKeys) / 8;
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, static_cast<int>(fair * 1.5));
}

// The preference-list walk as it was before it kept a table of listed
// members: it deduplicated with std::find over the list it was building.
// `ring` is the (position, server) points sorted by position.
std::vector<sim::NodeId> RescanningWalk(
    const std::vector<std::pair<uint64_t, sim::NodeId>>& ring, size_t servers,
    const std::string& key, size_t n) {
  n = std::min(n, servers);
  std::vector<sim::NodeId> out;
  auto it = std::lower_bound(ring.begin(), ring.end(), Mix64(Fnv1a64(key)),
                             [](const auto& point, uint64_t position) {
                               return point.first < position;
                             });
  for (size_t steps = 0; out.size() < n && steps < 2 * ring.size();
       ++steps) {
    if (it == ring.end()) it = ring.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

// Full walks (every member, as DynamoCluster::RingWalkAt asks for) and short
// ones equal the rescanning walk's lists, on 50 servers x 64 vnodes whose
// ids are spread out, so the table of listed members is indexed sparsely.
TEST(HashRingTest, ListedMemberTableMatchesRescanningWalk) {
  constexpr int kVnodes = 64;
  HashRing ring(kVnodes);
  std::vector<std::pair<uint64_t, sim::NodeId>> points;
  for (sim::NodeId i = 0; i < 50; ++i) {
    const sim::NodeId node = 3 * i + 7;
    ring.AddServer(node);
    // AddServer's point formula; the full 64-bit space has no collisions
    // here, so no point was re-probed (checked below).
    for (int v = 0; v < kVnodes; ++v) {
      points.emplace_back(Mix64((static_cast<uint64_t>(node) << 20) ^
                                static_cast<uint64_t>(v) ^ 0x5ca1ab1eULL),
                          node);
    }
  }
  std::sort(points.begin(), points.end());
  ASSERT_EQ(std::adjacent_find(points.begin(), points.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }),
            points.end());
  ASSERT_EQ(ring.point_count(), points.size());
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    for (size_t n : {size_t{1}, size_t{3}, size_t{50}}) {
      const std::vector<sim::NodeId> walk = ring.PreferenceList(key, n);
      ASSERT_EQ(walk, RescanningWalk(points, 50, key, n)) << key << " n=" << n;
      ASSERT_EQ(walk.size(), n);
    }
  }
}

// A static cluster is epoch 0 of the elastic one: its placement is cached per
// key, and AddServer must drop that cache. In both static modes (modulo walk
// and vnode ring) the preference list must match a reference computed
// straight from the server list, before and after a server joins behind a
// completed op.
class StaticPlacementTest : public ::testing::TestWithParam<bool> {};

TEST_P(StaticPlacementTest, PreferenceListMatchesReferenceAcrossAddServer) {
  const bool use_hash_ring = GetParam();
  sim::Simulator sim(7);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * sim::kMillisecond));
  sim::Rpc rpc(&net);
  QuorumConfig config;
  config.use_hash_ring = use_hash_ring;
  DynamoCluster cluster(&rpc, config);
  std::vector<sim::NodeId> servers = cluster.AddServers(5);
  const size_t n = static_cast<size_t>(config.replication_factor);

  auto expect_reference_placement = [&] {
    HashRing ring(config.ring_vnodes);
    for (sim::NodeId s : servers) ring.AddServer(s);
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "key" + std::to_string(i);
      std::vector<sim::NodeId> want;
      if (use_hash_ring) {
        want = ring.PreferenceList(key, n);
      } else {
        const size_t start = Fnv1a64(key) % servers.size();
        for (size_t j = 0; j < n; ++j) {
          want.push_back(servers[(start + j) % servers.size()]);
        }
      }
      ASSERT_EQ(cluster.PreferenceList(key), want)
          << key << " with " << servers.size() << " servers";
    }
  };

  // The first op places "key0" and caches walks before any check runs.
  const sim::NodeId client = net.AddNode();
  bool ok = false;
  cluster.Put(client, servers[0], "key0", "v", {},
              [&](Result<Version> r) { ok = r.ok(); });
  sim.RunFor(sim::kSecond);
  ASSERT_TRUE(ok);
  expect_reference_placement();

  servers.push_back(cluster.AddServer());
  expect_reference_placement();
}

INSTANTIATE_TEST_SUITE_P(ModuloAndRing, StaticPlacementTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "HashRing" : "Modulo";
                         });

TEST(HashRingDynamoTest, SloppyQuorumStillWorksOnRing) {
  sim::Simulator sim(5);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * sim::kMillisecond));
  sim::Rpc rpc(&net);
  QuorumConfig config;
  config.use_hash_ring = true;
  config.sloppy = true;
  DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(6);
  cluster.StartFailureDetection();
  const sim::NodeId client = net.AddNode();
  const auto pref = cluster.PreferenceList("k");
  net.SetNodeUp(pref[1], false);
  net.SetNodeUp(pref[2], false);
  sim.RunFor(sim::kSecond);  // heartbeats convict the dead replicas
  int coordinator_index = 0;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (servers[i] == pref[0]) coordinator_index = static_cast<int>(i);
  }
  bool ok = false;
  cluster.Put(client, servers[coordinator_index], "k", "v", {},
              [&](Result<Version> r) { ok = r.ok(); });
  sim.RunFor(5 * sim::kSecond);
  EXPECT_TRUE(ok);
  EXPECT_GE(cluster.stats().sloppy_diversions, 2u);
}

}  // namespace
}  // namespace evc::repl

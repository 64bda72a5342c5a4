#include "storage/versioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/encoding.h"
#include "common/hash.h"
#include "common/rng.h"
#include "storage/merkle.h"
#include "storage/replica_storage.h"

namespace evc {
namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

TEST(VersionedStoreTest, GetMissingIsEmpty) {
  VersionedStore store(0);
  EXPECT_TRUE(store.Get("nope").empty());
  EXPECT_TRUE(store.ContextFor("nope").empty());
  EXPECT_EQ(store.KeyDigest("nope"), 0u);
}

TEST(VersionedStoreTest, PutThenGet) {
  VersionedStore store(0);
  store.Put("k", "v1", VersionVector(), Ts(1));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v1");
  EXPECT_FALSE(versions[0].tombstone);
}

TEST(VersionedStoreTest, CausalOverwriteReplacesVersion) {
  VersionedStore store(0);
  store.Put("k", "v1", VersionVector(), Ts(1));
  const VersionVector ctx = store.ContextFor("k");
  store.Put("k", "v2", ctx, Ts(2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v2");
}

TEST(VersionedStoreTest, BlindWritesSameCoordinatorFalselyOverwrite) {
  // With plain server-id version vectors, two blind writes through the SAME
  // coordinator get vv {r0:1} then {r0:2}: the second "dominates" and
  // silently discards the first even though the clients were concurrent.
  // This is the documented false-overwrite weakness of version vectors that
  // dotted version vectors repair (see DottedVersionVector tests).
  VersionedStore store(0);
  store.Put("k", "a", VersionVector(), Ts(1));
  store.Put("k", "b", VersionVector(), Ts(2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "b");
}

TEST(VersionedStoreTest, BlindWritesAtDifferentReplicasCreateSiblings) {
  VersionedStore a(0), b(1);
  a.Put("k", "from-a", VersionVector(), Ts(1, 0));
  b.Put("k", "from-b", VersionVector(), Ts(1, 1));
  a.MergeRemote("k", b.GetRaw("k"));
  EXPECT_EQ(a.Get("k").size(), 2u);
}

TEST(VersionedStoreTest, WriteAfterRemoteMergeDominatesOwnSlot) {
  // Regression: if the context's own-replica slot is ahead of the local
  // write counter (possible after merging remote state that includes our
  // earlier writes), a new write must still strictly dominate the context.
  VersionedStore a(0);
  VersionVector ctx;
  ctx.Set(0, 10);  // context claims to have seen our event #10
  Version v = a.Put("k", "x", ctx, Ts(1));
  EXPECT_GT(v.vv.Get(0), 10u);
  EXPECT_TRUE(v.vv.Dominates(ctx));
}

TEST(VersionedStoreTest, WriteWithMergedContextResolvesSiblings) {
  VersionedStore store(0);
  store.Put("k", "a", VersionVector(), Ts(1));
  store.Put("k", "b", VersionVector(), Ts(2));
  const VersionVector ctx = store.ContextFor("k");
  store.Put("k", "merged", ctx, Ts(3));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "merged");
}

TEST(VersionedStoreTest, LwwPolicyKeepsNewestTimestamp) {
  VersionedStore store(0, {ConflictPolicy::kLastWriterWins});
  store.Put("k", "older", VersionVector(), Ts(5, 1));
  store.Put("k", "newer", VersionVector(), Ts(9, 2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "newer");
}

TEST(VersionedStoreTest, LwwLosesConcurrentUpdate) {
  // The lost-update anomaly: two concurrent writes, LWW silently discards
  // one. This is the behaviour Fig. 5 quantifies.
  VersionedStore store(0, {ConflictPolicy::kLastWriterWins});
  store.Put("cart", "milk", VersionVector(), Ts(10, 1));
  store.Put("cart", "eggs", VersionVector(), Ts(11, 2));
  auto versions = store.Get("cart");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "eggs");  // "milk" is gone forever
}

TEST(VersionedStoreTest, DeleteWritesTombstone) {
  VersionedStore store(0);
  store.Put("k", "v", VersionVector(), Ts(1));
  store.Delete("k", store.ContextFor("k"), Ts(2));
  EXPECT_TRUE(store.Get("k").empty());
  auto raw = store.GetRaw("k");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_TRUE(raw[0].tombstone);
}

TEST(VersionedStoreTest, ConcurrentDeleteAndWriteBothSurvive) {
  // Delete at replica 0 concurrent with an overwrite at replica 1 (both
  // started from the same read context): after merging, both the tombstone
  // and the new value coexist as siblings; the live read sees the value.
  VersionedStore a(0), b(1);
  a.Put("k", "v", VersionVector(), Ts(1, 0));
  b.MergeRemote("k", a.GetRaw("k"));
  const VersionVector ctx = a.ContextFor("k");
  a.Delete("k", ctx, Ts(2, 0));
  b.Put("k", "resurrect", ctx, Ts(3, 1));
  a.MergeRemote("k", b.GetRaw("k"));
  auto raw = a.GetRaw("k");
  EXPECT_EQ(raw.size(), 2u);
  auto live = a.Get("k");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].value, "resurrect");
}

TEST(VersionedStoreTest, MergeRemoteIdempotent) {
  VersionedStore a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1));
  const auto versions = a.GetRaw("k");
  EXPECT_TRUE(b.MergeRemote("k", versions));
  EXPECT_FALSE(b.MergeRemote("k", versions));  // no change second time
  EXPECT_EQ(b.Get("k").size(), 1u);
}

TEST(VersionedStoreTest, MergeRemoteKeepsConcurrentFromBothReplicas) {
  VersionedStore a(0), b(1);
  a.Put("k", "from-a", VersionVector(), Ts(1, 0));
  b.Put("k", "from-b", VersionVector(), Ts(1, 1));
  EXPECT_TRUE(a.MergeRemote("k", b.GetRaw("k")));
  EXPECT_EQ(a.Get("k").size(), 2u);
  // And merging back the union into b converges both replicas.
  EXPECT_TRUE(b.MergeRemote("k", a.GetRaw("k")));
  EXPECT_EQ(a.KeyDigest("k"), b.KeyDigest("k"));
}

TEST(VersionedStoreTest, MergeRemoteDropsDominated) {
  VersionedStore a(0), b(1);
  a.Put("k", "v1", VersionVector(), Ts(1));
  b.MergeRemote("k", a.GetRaw("k"));
  // b overwrites causally.
  b.Put("k", "v2", b.ContextFor("k"), Ts(2));
  // Old version from a must not resurrect in b, and v2 replaces v1 in a.
  EXPECT_FALSE(b.MergeRemote("k", a.GetRaw("k")));
  EXPECT_TRUE(a.MergeRemote("k", b.GetRaw("k")));
  ASSERT_EQ(a.Get("k").size(), 1u);
  EXPECT_EQ(a.Get("k")[0].value, "v2");
}

TEST(VersionedStoreTest, KeyDigestIsOrderIndependent) {
  VersionedStore a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  b.Put("k", "y", VersionVector(), Ts(1, 1));
  VersionedStore m1(2), m2(3);
  m1.MergeRemote("k", a.GetRaw("k"));
  m1.MergeRemote("k", b.GetRaw("k"));
  m2.MergeRemote("k", b.GetRaw("k"));
  m2.MergeRemote("k", a.GetRaw("k"));
  EXPECT_EQ(m1.KeyDigest("k"), m2.KeyDigest("k"));
  EXPECT_NE(m1.KeyDigest("k"), 0u);
}

TEST(VersionedStoreTest, CountsTrackState) {
  VersionedStore store(0);
  VersionedStore peer(1);
  EXPECT_EQ(store.key_count(), 0u);
  store.Put("a", "1", VersionVector(), Ts(1, 0));
  store.Put("b", "2", VersionVector(), Ts(2, 0));
  peer.Put("b", "3", VersionVector(), Ts(3, 1));
  store.MergeRemote("b", peer.GetRaw("b"));  // creates a sibling under "b"
  EXPECT_EQ(store.key_count(), 2u);
  EXPECT_EQ(store.version_count(), 3u);
}

// `key`'s set as anti-entropy would ship it from `store` (default depth).
SharedSiblings Shipped(const VersionedStore& store, const std::string& key) {
  for (SharedSiblings& shipped : store.SiblingsInLeaves(
           {MerkleTree::LeafOf(key, MerkleTree::kDefaultDepth)})) {
    if (shipped.key == key) return shipped;
  }
  ADD_FAILURE() << key << " is not stored";
  return {};
}

// Stores share set objects: anti-entropy ships them, and a merge whose
// result equals the shipped set adopts it. So every write must build a
// replacement set. Each step below changes B's state for a key whose set B
// adopted from A, and A must not see it.
TEST(VersionedStoreTest, SharedSetsAreNeverEditedInPlace) {
  VersionedStoreOptions lww;
  lww.conflict_policy = ConflictPolicy::kLastWriterWins;
  VersionedStore a(0), b(1), lww_a(0, lww), lww_b(1, lww);
  ReplicaStorage durable_a(0), durable_b(1);
  const std::vector<std::string> keys = {"put", "delete", "merge"};
  for (const std::string& key : keys) a.Put(key, "a", {}, Ts(1));
  lww_a.Put("collapse", "a", {}, Ts(1));
  durable_a.Put("recover", "a", {}, Ts(1));

  // B adopts each of A's sets: it holds A's object, not a copy.
  for (const std::string& key : keys) {
    ASSERT_TRUE(b.MergeRemote(Shipped(a, key)));
  }
  ASSERT_TRUE(lww_b.MergeRemote(Shipped(lww_a, "collapse")));
  ASSERT_TRUE(durable_b.MergeRemote(Shipped(durable_a.store(), "recover")));
  struct Held {
    const VersionedStore* store;  // A's side
    std::string key;
    std::vector<Version> raw;
    uint64_t digest;
  };
  std::vector<Held> held;
  auto hold = [&held](const VersionedStore& from, const VersionedStore& to,
                      const std::string& key) {
    EXPECT_EQ(Shipped(to, key).siblings, Shipped(from, key).siblings) << key;
    held.push_back({&from, key, from.GetRaw(key), from.KeyDigest(key)});
  };
  for (const std::string& key : keys) hold(a, b, key);
  hold(lww_a, lww_b, "collapse");
  hold(durable_a.store(), durable_b.store(), "recover");
  auto expect_a_unchanged = [&held](const std::string& step) {
    for (const Held& h : held) {
      EXPECT_EQ(h.store->GetRaw(h.key), h.raw) << step << ", key " << h.key;
      EXPECT_EQ(h.store->KeyDigest(h.key), h.digest)
          << step << ", key " << h.key;
    }
  };

  b.Put("put", "b", b.ContextFor("put"), Ts(3, 1));
  expect_a_unchanged("Put");
  b.Delete("delete", b.ContextFor("delete"), Ts(3, 1));
  expect_a_unchanged("Delete");
  VersionedStore c(2);
  c.Put("merge", "c", {}, Ts(3, 2));  // concurrent with A's write
  ASSERT_TRUE(b.MergeRemote("merge", c.GetRaw("merge")));
  EXPECT_EQ(b.GetRaw("merge").size(), 2u);
  expect_a_unchanged("concurrent MergeRemote");
  VersionedStore lww_c(2, lww);
  lww_c.Put("collapse", "c", {}, Ts(3, 2));
  ASSERT_TRUE(lww_b.MergeRemote("collapse", lww_c.GetRaw("collapse")));
  ASSERT_EQ(lww_b.GetRaw("collapse").size(), 1u);
  EXPECT_EQ(lww_b.GetRaw("collapse")[0].value, "c");
  expect_a_unchanged("LWW collapse");
  ASSERT_TRUE(durable_b.CrashAndRecover().ok());
  EXPECT_EQ(durable_b.GetRaw("recover"), durable_a.GetRaw("recover"));
  expect_a_unchanged("crash-recover");
}

TEST(VersionedStoreTest, ForEachKeyIteratesInOrder) {
  VersionedStore store(0);
  store.Put("b", "2", VersionVector(), Ts(1));
  store.Put("a", "1", VersionVector(), Ts(2));
  std::vector<std::string> keys;
  store.ForEachKey([&](const std::string& k, const std::vector<Version>&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

// KeyDigest recomputed from scratch: the definition the cached digest must
// keep matching.
uint64_t RecomputedDigest(const std::string& key,
                          const std::vector<Version>& siblings) {
  uint64_t acc = 0;
  for (const Version& v : siblings) acc ^= Mix64(Fnv1a64(key) ^ v.Digest());
  return acc;
}

// Every stored key's cached digest equals its recomputation, and so does
// every probed key's (0 when absent).
void ExpectDigestsFresh(const VersionedStore& store,
                        const std::vector<std::string>& probes) {
  store.ForEachKey([&](const std::string& key,
                       const std::vector<Version>& siblings) {
    EXPECT_EQ(store.KeyDigest(key), RecomputedDigest(key, siblings)) << key;
  });
  for (const std::string& key : probes) {
    EXPECT_EQ(store.KeyDigest(key), RecomputedDigest(key, store.GetRaw(key)))
        << key;
  }
}

TEST(VersionedStoreTest, CachedKeyDigestMatchesRecomputationAfterEveryWrite) {
  const std::vector<std::string> probes = {"a", "b", "gone", "absent"};
  VersionedStore store(0), peer(1);
  store.Put("a", "1", VersionVector(), Ts(1, 0));
  ExpectDigestsFresh(store, probes);
  store.Put("gone", "x", VersionVector(), Ts(2, 0));
  store.Delete("gone", store.ContextFor("gone"), Ts(3, 0));
  ExpectDigestsFresh(store, probes);
  peer.Put("a", "2", VersionVector(), Ts(4, 1));
  peer.Put("b", "3", VersionVector(), Ts(5, 1));
  const uint64_t before = store.KeyDigest("a");
  KeyDigestChange change;
  EXPECT_TRUE(store.MergeRemote("a", peer.GetRaw("a"), &change));
  EXPECT_EQ(change.key_hash, Fnv1a64("a"));
  EXPECT_EQ(change.old_digest, before);
  EXPECT_EQ(change.new_digest, store.KeyDigest("a"));
  EXPECT_NE(store.KeyDigest("a"), before);  // a sibling joined
  EXPECT_TRUE(store.MergeRemote("b", peer.GetRaw("b"), &change));
  EXPECT_EQ(change.old_digest, 0u);  // new key
  EXPECT_EQ(change.new_digest, store.KeyDigest("b"));
  ExpectDigestsFresh(store, probes);
  const uint64_t settled = store.KeyDigest("a");
  EXPECT_FALSE(store.MergeRemote("a", peer.GetRaw("a")));  // no-op
  EXPECT_EQ(store.KeyDigest("a"), settled);
  ExpectDigestsFresh(store, probes);
}

TEST(VersionedStoreTest, CachedKeyDigestMatchesRecomputationAfterLwwCollapse) {
  VersionedStore store(0, {ConflictPolicy::kLastWriterWins});
  VersionedStore peer(1);  // keeps siblings, so its merge carries two
  store.Put("k", "older", VersionVector(), Ts(5, 0));
  peer.Put("k", "newer", VersionVector(), Ts(9, 1));
  peer.Put("k2", "x", VersionVector(), Ts(3, 1));
  peer.MergeRemote("k", store.GetRaw("k"));
  ASSERT_EQ(peer.GetRaw("k").size(), 2u);
  EXPECT_TRUE(store.MergeRemote("k", peer.GetRaw("k")));
  ASSERT_EQ(store.GetRaw("k").size(), 1u);  // collapsed to the LWW winner
  EXPECT_EQ(store.GetRaw("k")[0].value, "newer");
  store.Put("k", "newest", VersionVector(), Ts(10, 0));  // collapses again
  ExpectDigestsFresh(store, {"k", "k2"});
}

// The per-leaf layout against a std::set of the stored keys (the order the
// store's former std::map gave), at a depth with two leaves, one with
// hundreds of keys per leaf, the default, and one where most leaves hold no
// key.
class VersionedStoreLayoutTest : public ::testing::TestWithParam<int> {
 protected:
  // 2000 random writes over a 2500-key space: puts, overwrites, deletes and
  // merges of a peer's siblings. `reference` tracks the stored key set.
  void Fill(VersionedStore* store, std::set<std::string>* reference) {
    Rng rng(static_cast<uint64_t>(GetParam()));
    VersionedStore peer(9);
    for (uint64_t i = 1; i <= 2000; ++i) {
      const std::string key = "key" + std::to_string(rng.NextBounded(2500));
      const double pick = rng.NextDouble();
      if (pick < 0.7) {
        store->Put(key, "v" + std::to_string(i), store->ContextFor(key),
                   Ts(i));
      } else if (pick < 0.8) {
        store->Delete(key, store->ContextFor(key), Ts(i));
      } else {
        peer.Put(key, "p" + std::to_string(i), VersionVector(), Ts(i, 9));
        store->MergeRemote(key, peer.GetRaw(key));
      }
      reference->insert(key);
    }
  }
};

TEST_P(VersionedStoreLayoutTest, ForEachKeyMatchesSortedReference) {
  VersionedStore store(0, {}, GetParam());
  std::set<std::string> reference;
  Fill(&store, &reference);
  ASSERT_GE(reference.size(), 1000u);
  std::vector<std::string> visited;
  store.ForEachKey(
      [&](const std::string& key, const std::vector<Version>& siblings) {
        visited.push_back(key);
        EXPECT_FALSE(siblings.empty());
      });
  const std::vector<std::string> expected(reference.begin(), reference.end());
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(store.key_count(), expected.size());
  ExpectDigestsFresh(store, {});
}

TEST_P(VersionedStoreLayoutTest, LeafIterationVisitsExactlyRequestedLeaves) {
  const int depth = GetParam();
  VersionedStore store(0, {}, depth);
  std::set<std::string> reference;
  Fill(&store, &reference);
  const MerkleTree tree(depth);
  // Odd leaves only, so the set is a strict subset even at depth 1: those
  // of every 50th key, 20 random ones (mostly empty at depth 14), and one
  // index twice, in no particular order.
  Rng rng(77);
  std::vector<size_t> leaves;
  size_t i = 0;
  for (const std::string& key : reference) {
    const size_t leaf = tree.BucketFor(key);
    if (i++ % 50 == 0 && leaf % 2 == 1) leaves.push_back(leaf);
  }
  for (int r = 0; r < 20; ++r) {
    leaves.push_back(2 * rng.NextBounded(tree.leaf_count() / 2) + 1);
  }
  leaves.push_back(leaves.front());
  std::reverse(leaves.begin(), leaves.end());
  const std::set<size_t> wanted(leaves.begin(), leaves.end());
  // The store returns leaf by leaf in ascending leaf order, each leaf's keys
  // in key order: the reference's keys regrouped under an ordered map of
  // leaves.
  std::map<size_t, std::vector<std::string>> by_leaf;
  std::set<std::string> members;
  for (const std::string& key : reference) {
    const size_t leaf = tree.BucketFor(key);
    if (wanted.count(leaf) == 0) continue;
    by_leaf[leaf].push_back(key);
    members.insert(key);
  }
  std::vector<std::string> expected;
  for (const auto& [leaf, keys] : by_leaf) {
    expected.insert(expected.end(), keys.begin(), keys.end());
  }
  std::vector<std::string> visited;
  std::vector<size_t> visited_leaves;
  for (const SharedSiblings& shipped : store.SiblingsInLeaves(leaves)) {
    visited.push_back(shipped.key);
    visited_leaves.push_back(shipped.leaf);
    EXPECT_EQ(shipped.leaf, tree.BucketFor(shipped.key));
    EXPECT_EQ(*shipped.siblings, store.GetRaw(shipped.key));
    EXPECT_EQ(shipped.digest, store.KeyDigest(shipped.key));
  }
  // Exactly the wanted leaves' keys, each once, whatever the order.
  EXPECT_EQ(std::set<std::string>(visited.begin(), visited.end()), members);
  EXPECT_EQ(visited.size(), members.size());
  // And in the order of the contract.
  EXPECT_TRUE(std::is_sorted(visited_leaves.begin(), visited_leaves.end()));
  EXPECT_EQ(visited, expected);
  EXPECT_FALSE(expected.empty());
  EXPECT_LT(expected.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Depths, VersionedStoreLayoutTest,
                         ::testing::Values(1, 6, 10, 14));

TEST(VersionTest, EncodeDecodeRoundTrip) {
  Version v;
  v.value = "payload \x01\x02";
  v.vv.Set(3, 9);
  v.lww_ts = Ts(77, 5);
  v.tombstone = true;
  std::string buf;
  v.EncodeTo(&buf);
  Decoder dec(buf);
  auto decoded = Version::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->value, v.value);
  EXPECT_EQ(decoded->vv, v.vv);
  EXPECT_EQ(decoded->lww_ts, v.lww_ts);
  EXPECT_EQ(decoded->tombstone, v.tombstone);
  EXPECT_EQ(decoded->Digest(), v.Digest());
}

// Property: random cross-merging of three replicas converges to identical
// sibling sets regardless of merge order (strong eventual consistency of the
// sibling-store itself).
class StoreConvergencePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreConvergencePropertyTest, ReplicasConvergeUnderAnyMergeOrder) {
  Rng rng(GetParam());
  VersionedStore replicas[3] = {VersionedStore(0), VersionedStore(1),
                                VersionedStore(2)};
  const std::string key = "k";
  uint64_t ts = 1;
  // Random local writes (sometimes causal, sometimes blind) at random
  // replicas, interleaved with random pairwise merges.
  for (int step = 0; step < 200; ++step) {
    const int r = static_cast<int>(rng.NextBounded(3));
    if (rng.NextBool(0.5)) {
      const VersionVector ctx =
          rng.NextBool(0.5) ? replicas[r].ContextFor(key) : VersionVector();
      replicas[r].Put(key, "v" + std::to_string(step), ctx,
                      Ts(ts++, static_cast<uint32_t>(r)));
    } else {
      const int peer = static_cast<int>(rng.NextBounded(3));
      replicas[r].MergeRemote(key, replicas[peer].GetRaw(key));
    }
  }
  // Full pairwise exchange until quiescent.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds < 20) {
    changed = false;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i == j) continue;
        changed |= replicas[i].MergeRemote(key, replicas[j].GetRaw(key));
      }
    }
    ++rounds;
  }
  EXPECT_LT(rounds, 20);
  EXPECT_EQ(replicas[0].KeyDigest(key), replicas[1].KeyDigest(key));
  EXPECT_EQ(replicas[1].KeyDigest(key), replicas[2].KeyDigest(key));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreConvergencePropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace evc

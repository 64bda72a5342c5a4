#include "storage/replica_storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace evc {
namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

TEST(ReplicaStorageTest, PutGetRoundTrip) {
  ReplicaStorage rs(0);
  rs.Put("k", "v", VersionVector(), Ts(1));
  auto versions = rs.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v");
  EXPECT_GT(rs.wal()->size_bytes(), 0u);
}

TEST(ReplicaStorageTest, RecoveryRestoresExactState) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", VersionVector(), Ts(1));
  rs.Put("b", "2", VersionVector(), Ts(2));
  rs.Put("a", "3", rs.ContextFor("a"), Ts(3));
  rs.Delete("b", rs.ContextFor("b"), Ts(4));
  const uint64_t root_before = rs.merkle().RootDigest();
  const size_t keys_before = rs.key_count();

  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 4u);
  EXPECT_EQ(rs.merkle().RootDigest(), root_before);
  EXPECT_EQ(rs.key_count(), keys_before);
  ASSERT_EQ(rs.Get("a").size(), 1u);
  EXPECT_EQ(rs.Get("a")[0].value, "3");
  EXPECT_TRUE(rs.Get("b").empty());       // tombstoned
  EXPECT_FALSE(rs.GetRaw("b").empty());   // tombstone retained
}

TEST(ReplicaStorageTest, RecoveryWithTornTailDropsOnlyTail) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", VersionVector(), Ts(1));
  const uint64_t good = rs.wal()->size_bytes();
  rs.Put("b", "2", VersionVector(), Ts(2));
  rs.wal()->TruncateTo(good + 2);  // tear the second record
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
  EXPECT_FALSE(rs.Get("a").empty());
  EXPECT_TRUE(rs.Get("b").empty());
  EXPECT_EQ(rs.wal()->size_bytes(), good);  // tail truncated away
}

TEST(ReplicaStorageTest, PostRecoveryWritesDoNotReuseCounters) {
  ReplicaStorage rs(7);
  rs.Put("k", "v1", VersionVector(), Ts(1));
  const uint64_t counter_before = rs.GetRaw("k")[0].vv.Get(7);
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k2", "v2", VersionVector(), Ts(2));
  const uint64_t counter_after = rs.GetRaw("k2")[0].vv.Get(7);
  EXPECT_GT(counter_after, counter_before);
}

TEST(ReplicaStorageTest, PostRecoveryOverwriteStillDominates) {
  ReplicaStorage rs(3);
  rs.Put("k", "v1", VersionVector(), Ts(1));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k", "v2", rs.ContextFor("k"), Ts(2));
  auto versions = rs.Get("k");
  ASSERT_EQ(versions.size(), 1u);  // no spurious sibling
  EXPECT_EQ(versions[0].value, "v2");
}

TEST(ReplicaStorageTest, MergeRemoteJournaled) {
  ReplicaStorage a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  EXPECT_TRUE(b.MergeRemote("k", a.GetRaw("k")));
  ASSERT_TRUE(b.CrashAndRecover().ok());
  ASSERT_EQ(b.Get("k").size(), 1u);
  EXPECT_EQ(b.Get("k")[0].value, "x");
}

TEST(ReplicaStorageTest, DuplicateMergeNotJournaledTwice) {
  ReplicaStorage a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  b.MergeRemote("k", a.GetRaw("k"));
  const uint64_t wal_size = b.wal()->size_bytes();
  b.MergeRemote("k", a.GetRaw("k"));  // no-op
  EXPECT_EQ(b.wal()->size_bytes(), wal_size);
}

TEST(ReplicaStorageTest, NonDurableModeSkipsWal) {
  ReplicaStorageOptions opts;
  opts.durable = false;
  ReplicaStorage rs(0, opts);
  rs.Put("k", "v", VersionVector(), Ts(1));
  EXPECT_EQ(rs.wal()->size_bytes(), 0u);
}

TEST(ReplicaStorageTest, MerkleTracksStateAcrossReplicas) {
  ReplicaStorage a(0), b(1);
  EXPECT_EQ(a.merkle().RootDigest(), b.merkle().RootDigest());
  a.Put("k", "v", VersionVector(), Ts(1, 0));
  EXPECT_NE(a.merkle().RootDigest(), b.merkle().RootDigest());
  b.MergeRemote("k", a.GetRaw("k"));
  EXPECT_EQ(a.merkle().RootDigest(), b.merkle().RootDigest());
}

TEST(ReplicaStorageTest, CheckpointShrinksLogAndPreservesState) {
  ReplicaStorage rs(0);
  // Heavy overwrite traffic: the log holds 200 records for 5 keys.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    rs.Put(key, "v" + std::to_string(i), rs.ContextFor(key), Ts(i + 1));
  }
  const uint64_t root = rs.merkle().RootDigest();
  const uint64_t log_before = rs.wal()->size_bytes();
  const uint64_t reclaimed = rs.Checkpoint();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(rs.wal()->size_bytes(), log_before / 10);
  // Recovery from the checkpointed log reproduces the exact state.
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 5u);  // one record per live key
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  ASSERT_EQ(rs.Get("k0").size(), 1u);
  EXPECT_EQ(rs.Get("k0")[0].value, "v195");
}

TEST(ReplicaStorageTest, WritesAfterCheckpointStillRecover) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", {}, Ts(1));
  rs.Checkpoint();
  rs.Put("b", "2", {}, Ts(2));
  rs.Put("a", "3", rs.ContextFor("a"), Ts(3));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  ASSERT_EQ(rs.Get("a").size(), 1u);
  EXPECT_EQ(rs.Get("a")[0].value, "3");
  EXPECT_EQ(rs.Get("b")[0].value, "2");
}

// Satellite pin: the full checkpoint -> crash -> replay round-trip. The
// recovered state must be bit-exact (merkle root, version count, values,
// tombstones) with a checkpoint record in the middle of the log, and the
// recovered store must keep journaling correctly afterwards.
TEST(ReplicaStorageTest, CheckpointCrashReplayRoundTrip) {
  ReplicaStorage rs(2);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    rs.Put(key, "pre" + std::to_string(i), rs.ContextFor(key), Ts(i + 1));
  }
  rs.Delete("k6", rs.ContextFor("k6"), Ts(60));
  ASSERT_GT(rs.Checkpoint(), 0u);
  // Post-checkpoint traffic, including a resurrection of the tombstone.
  rs.Put("k6", "reborn", rs.ContextFor("k6"), Ts(61));
  rs.Put("k0", "post", rs.ContextFor("k0"), Ts(62));
  rs.Delete("k1", rs.ContextFor("k1"), Ts(63));

  const uint64_t root = rs.merkle().RootDigest();
  const size_t versions = rs.version_count();
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(*replayed, 3u);  // checkpoint records + the post-checkpoint tail
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  EXPECT_EQ(rs.version_count(), versions);
  EXPECT_EQ(rs.Get("k6")[0].value, "reborn");
  EXPECT_EQ(rs.Get("k0")[0].value, "post");
  EXPECT_TRUE(rs.Get("k1").empty());      // tombstoned
  EXPECT_FALSE(rs.GetRaw("k1").empty());  // tombstone retained

  // The recovered store journals new writes: a second crash loses nothing.
  rs.Put("k2", "after-recovery", rs.ContextFor("k2"), Ts(64));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.Get("k2")[0].value, "after-recovery");
}

TEST(ReplicaStorageTest, CheckpointCounterFloorSurvives) {
  // Regression: after checkpoint + recovery, new writes must still not
  // reuse version-vector slots.
  ReplicaStorage rs(4);
  for (int i = 0; i < 10; ++i) {
    rs.Put("k", "v" + std::to_string(i), rs.ContextFor("k"), Ts(i + 1));
  }
  const uint64_t counter = rs.GetRaw("k")[0].vv.Get(4);
  rs.Checkpoint();
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k2", "x", {}, Ts(99));
  EXPECT_GT(rs.GetRaw("k2")[0].vv.Get(4), counter);
}

// The storage's cached KeyDigests and incrementally kept Merkle tree both
// equal a from-scratch rebuild: every key's digest recomputed from its
// siblings, filed into a fresh tree of the same depth.
void ExpectDigestsAndTreeFresh(const ReplicaStorage& rs) {
  MerkleTree rebuilt(rs.merkle().depth());
  rs.store().ForEachKey([&](const std::string& key,
                            const std::vector<Version>& siblings) {
    uint64_t digest = 0;
    for (const Version& v : siblings) {
      digest ^= Mix64(Fnv1a64(key) ^ v.Digest());
    }
    EXPECT_EQ(rs.store().KeyDigest(key), digest) << key;
    rebuilt.UpdateKey(Fnv1a64(key), 0, digest);
  });
  EXPECT_EQ(rs.merkle().RootDigest(), rebuilt.RootDigest());
}

TEST(ReplicaStorageTest, CachedDigestsMatchRebuildAfterEveryWritePath) {
  ReplicaStorageOptions lww;
  lww.store.conflict_policy = ConflictPolicy::kLastWriterWins;
  ReplicaStorage rs(0, lww), peer(1);
  rs.Put("a", "1", VersionVector(), Ts(1, 0));
  ExpectDigestsAndTreeFresh(rs);
  rs.Put("d", "x", VersionVector(), Ts(2, 0));
  rs.Delete("d", rs.ContextFor("d"), Ts(3, 0));
  ExpectDigestsAndTreeFresh(rs);
  peer.Put("b", "2", VersionVector(), Ts(4, 1));
  EXPECT_TRUE(rs.MergeRemote("b", peer.GetRaw("b")));  // new key
  ExpectDigestsAndTreeFresh(rs);
  const uint64_t wal_bytes = rs.wal()->size_bytes();
  EXPECT_FALSE(rs.MergeRemote("b", peer.GetRaw("b")));  // no-op
  EXPECT_EQ(rs.wal()->size_bytes(), wal_bytes);
  ExpectDigestsAndTreeFresh(rs);
  // Concurrent siblings from the peer collapse to the LWW winner here.
  peer.Put("a", "newer", VersionVector(), Ts(9, 1));
  peer.MergeRemote("a", rs.GetRaw("a"));
  ASSERT_EQ(peer.GetRaw("a").size(), 2u);
  EXPECT_TRUE(rs.MergeRemote("a", peer.GetRaw("a")));
  ASSERT_EQ(rs.GetRaw("a").size(), 1u);
  EXPECT_EQ(rs.GetRaw("a")[0].value, "newer");
  ExpectDigestsAndTreeFresh(rs);
  const uint64_t root = rs.merkle().RootDigest();
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  ExpectDigestsAndTreeFresh(rs);
}

// The per-leaf layout at four Merkle depths: key order, the leaf each key
// is filed under, and digests, before and after crash recovery and after a
// checkpointed recovery.
class ReplicaStorageLayoutTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicaStorageLayoutTest, LayoutSurvivesRecoveryAndCheckpoint) {
  ReplicaStorageOptions options;
  options.merkle_depth = GetParam();
  ReplicaStorage rs(0, options);
  Rng rng(static_cast<uint64_t>(GetParam()) * 31);
  std::set<std::string> reference;
  for (uint64_t i = 1; i <= 2000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBounded(2500));
    if (rng.NextBool(0.85)) {
      rs.Put(key, "v" + std::to_string(i), rs.ContextFor(key), Ts(i));
    } else {
      rs.Delete(key, rs.ContextFor(key), Ts(i));
    }
    reference.insert(key);
  }
  ASSERT_GE(reference.size(), 1000u);
  const std::vector<std::string> expected(reference.begin(), reference.end());
  for (int phase = 0; phase < 3; ++phase) {
    if (phase == 2) rs.Checkpoint();
    if (phase > 0) {
      ASSERT_TRUE(rs.CrashAndRecover().ok());
    }
    std::vector<std::string> visited;
    rs.store().ForEachKey([&](const std::string& key,
                              const std::vector<Version>&) {
      visited.push_back(key);
    });
    EXPECT_EQ(visited, expected) << "phase " << phase;
    ExpectDigestsAndTreeFresh(rs);
    // Leaf 1 holds exactly the keys the tree buckets there.
    std::vector<std::string> in_leaf;
    for (const SharedSiblings& shipped : rs.store().SiblingsInLeaves({1})) {
      in_leaf.push_back(shipped.key);
    }
    std::vector<std::string> want;
    for (const std::string& key : expected) {
      if (rs.merkle().BucketFor(key) == 1) want.push_back(key);
    }
    EXPECT_EQ(in_leaf, want) << "phase " << phase;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ReplicaStorageLayoutTest,
                         ::testing::Values(1, 6, 10, 14));

// Property: random workload + crash at a random point recovers to exactly
// the state encoded by the surviving log prefix.
class CrashRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryPropertyTest, RecoveryIsExact) {
  Rng rng(GetParam());
  ReplicaStorage rs(0);
  uint64_t ts = 1;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(10));
    if (rng.NextBool(0.8)) {
      rs.Put(key, "v" + std::to_string(i),
             rng.NextBool(0.7) ? rs.ContextFor(key) : VersionVector(),
             Ts(ts++));
    } else {
      rs.Delete(key, rs.ContextFor(key), Ts(ts++));
    }
  }
  const uint64_t root = rs.merkle().RootDigest();
  const size_t versions = rs.version_count();
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  EXPECT_EQ(rs.version_count(), versions);
  // Second recovery is also exact (idempotent).
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.merkle().RootDigest(), root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// Property: adopting a shipped set object is exact. One replica merges the
// set another store shipped (MergeRemote(SharedSiblings), which adopts the
// object when it strictly dominates every local version); its twin, with
// the same history, merges a vector of the same versions, which always
// builds its own set. Both must report the same change and end with the
// same GetRaw, KeyDigest, Merkle root and WAL bytes. Three writers build
// each key's histories from causal overwrites, blind (concurrent) writes
// and syncs, so local and shipped sets meet as equal, dominated and
// concurrent versions, under both conflict policies at the receivers.
class AdoptionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdoptionPropertyTest, AdoptingEqualsMergingTheSameVersions) {
  Rng rng(GetParam());
  int dominated = 0;   // every local version strictly older than a shipped
  int concurrent = 0;  // some local version concurrent with a shipped one
  int equal = 0;       // the local set equals the shipped one
  for (ConflictPolicy policy :
       {ConflictPolicy::kSiblings, ConflictPolicy::kLastWriterWins}) {
    ReplicaStorageOptions options;
    options.store.conflict_policy = policy;
    ReplicaStorage adopting(0, options), merging(0, options);
    std::vector<VersionedStore> writers;
    for (uint32_t w = 1; w <= 3; ++w) writers.emplace_back(w);
    uint64_t ts = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const std::string key = "k" + std::to_string(trial);
      const auto write = [&](VersionedStore& w, bool blind) {
        const LamportTimestamp stamp = Ts(++ts, w.replica_id());
        const VersionVector context =
            blind ? VersionVector() : w.ContextFor(key);
        w.Put(key, std::to_string(ts), context, stamp);
      };
      const auto sync = [&key](VersionedStore& to,
                               const VersionedStore& from) {
        const std::vector<Version> versions = from.GetRaw(key);
        if (!versions.empty()) to.MergeRemote(key, versions);
      };
      for (int op = 0, ops = 1 + static_cast<int>(rng.NextBounded(6));
           op < ops; ++op) {
        VersionedStore& w = writers[rng.NextBounded(writers.size())];
        const uint64_t pick = rng.NextBounded(4);
        if (pick < 2) {  // a blind write is concurrent with what others hold
          write(w, /*blind=*/pick == 0);
        } else {
          sync(w, writers[rng.NextBounded(writers.size())]);
        }
      }
      const size_t local_index = rng.NextBounded(writers.size());
      const size_t sender_index = rng.NextBounded(writers.size());
      const VersionedStore& local = writers[local_index];
      VersionedStore& sender = writers[sender_index];
      const uint64_t ending = rng.NextBounded(3);
      if (ending > 0 && local_index != sender_index) {
        // The sender catches up with the local set and writes over it, so
        // its set strictly dominates the local one; a third writer's blind
        // write may then join it as a concurrent sibling.
        sync(sender, local);
        write(sender, /*blind=*/false);
        if (ending == 2) {
          VersionedStore& third = writers[3 - local_index - sender_index];
          write(third, /*blind=*/true);
          sync(sender, third);
        }
      }
      const std::vector<Version> local_versions = local.GetRaw(key);
      if (!local_versions.empty()) {
        adopting.MergeRemote(key, local_versions);
        merging.MergeRemote(key, local_versions);
      }
      std::vector<SharedSiblings> leaf = sender.SiblingsInLeaves(
          {MerkleTree::LeafOf(key, MerkleTree::kDefaultDepth)});
      const auto shipped = std::find_if(
          leaf.begin(), leaf.end(),
          [&key](const SharedSiblings& s) { return s.key == key; });
      if (shipped == leaf.end()) continue;  // the sender never saw the key
      const std::vector<Version> held = adopting.GetRaw(key);
      const std::vector<Version>& sent = *shipped->siblings;
      const auto older = [&sent](const Version& mine) {
        return std::any_of(sent.begin(), sent.end(), [&mine](const Version& v) {
          return v.vv.Dominates(mine.vv);
        });
      };
      const auto concurrent_with_sent = [&sent](const Version& mine) {
        return std::any_of(sent.begin(), sent.end(), [&mine](const Version& v) {
          return v.vv.ConcurrentWith(mine.vv);
        });
      };
      if (!held.empty() && std::all_of(held.begin(), held.end(), older)) {
        ++dominated;
      }
      if (std::any_of(held.begin(), held.end(), concurrent_with_sent)) {
        ++concurrent;
      }
      if (held == sent) ++equal;
      // Twice: the second merge finds the adopted object (or an equal set).
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(adopting.MergeRemote(*shipped),
                  merging.MergeRemote(key, *shipped->siblings))
            << key << " round " << round;
        EXPECT_EQ(adopting.GetRaw(key), merging.GetRaw(key)) << key;
        EXPECT_EQ(adopting.store().KeyDigest(key),
                  merging.store().KeyDigest(key))
            << key;
        EXPECT_EQ(adopting.merkle().RootDigest(),
                  merging.merkle().RootDigest())
            << key;
        EXPECT_EQ(adopting.wal()->buffer(), merging.wal()->buffer()) << key;
      }
    }
    ExpectDigestsAndTreeFresh(adopting);
  }
  // The generator must keep reaching the adoption, merge and no-op paths.
  EXPECT_GE(dominated, 50);
  EXPECT_GE(concurrent, 50);
  EXPECT_GE(equal, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdoptionPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

}  // namespace
}  // namespace evc

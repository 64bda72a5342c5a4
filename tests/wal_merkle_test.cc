#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/rng.h"
#include "storage/merkle.h"
#include "storage/wal.h"

namespace evc {
namespace {

TEST(WalTest, AppendAndReadAll) {
  WriteAheadLog wal;
  wal.Append("one");
  wal.Append("two");
  wal.Append(std::string("\x00\x01", 2));
  std::vector<std::string> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "one");
  EXPECT_EQ(records[1], "two");
  EXPECT_EQ(records[2], std::string("\x00\x01", 2));
}

TEST(WalTest, EmptyLogReadsNothing) {
  WriteAheadLog wal;
  std::vector<std::string> records;
  uint64_t valid = 99;
  ASSERT_TRUE(wal.ReadAll(&records, &valid).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(valid, 0u);
}

TEST(WalTest, TornTailStopsRecoveryCleanly) {
  WriteAheadLog wal;
  wal.Append("complete-1");
  wal.Append("complete-2");
  const uint64_t good_size = wal.size_bytes();
  wal.Append("will-be-torn");
  // Simulate a crash mid-write: truncate inside the last record.
  wal.TruncateTo(good_size + 3);
  std::vector<std::string> records;
  uint64_t valid = 0;
  ASSERT_TRUE(wal.ReadAll(&records, &valid).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(valid, good_size);
}

TEST(WalTest, CorruptRecordStopsRecovery) {
  WriteAheadLog wal;
  wal.Append("first");
  const uint64_t second_offset = wal.Append("second");
  wal.Append("third");
  // Flip a payload byte of "second".
  wal.CorruptByteAt(second_offset + 6);
  std::vector<std::string> records;
  uint64_t valid = 0;
  ASSERT_TRUE(wal.ReadAll(&records, &valid).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(valid, second_offset);
}

// Satellite pin: corrupt-in-the-middle is treated as torn-at-tail. The
// valid prefix is the recovery state; truncating to it and re-appending
// yields a clean log (the corrupted suffix, including records after the
// bad one, is intentionally discarded).
TEST(WalTest, CorruptMiddleTruncateThenReappendIsClean) {
  WriteAheadLog wal;
  wal.Append("alpha");
  wal.Append("bravo");
  const uint64_t third_offset = wal.Append("charlie");
  wal.Append("delta");
  wal.Append("echo");
  wal.CorruptByteAt(third_offset + 7);  // flip a payload byte of "charlie"

  std::vector<std::string> records;
  uint64_t valid = 0;
  ASSERT_TRUE(wal.ReadAll(&records, &valid).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(valid, third_offset);

  // Recovery protocol: truncate to the valid prefix, then keep appending.
  wal.TruncateTo(valid);
  EXPECT_EQ(wal.size_bytes(), third_offset);
  wal.Append("foxtrot");
  records.clear();
  ASSERT_TRUE(wal.ReadAll(&records, &valid).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "bravo");
  EXPECT_EQ(records[2], "foxtrot");
  EXPECT_EQ(valid, wal.size_bytes());  // whole log valid again
}

// The checkpoint rule: no log below 64 KiB is due; above it, a log is due
// at twice the size its last checkpoint left, and each checkpoint resets
// that reference.
TEST(WalTest, CheckpointDueAtTheFloorThenAtTwiceTheSnapshot) {
  constexpr uint64_t kFloor = 64 * 1024;
  const std::string record(1000, 'r');
  auto fill_until_due = [&record](WriteAheadLog* wal) {
    while (!wal->CheckpointDue()) wal->Append(record);
    return wal->size_bytes();
  };
  auto snapshot_of = [&record](uint64_t bytes) {
    WriteAheadLog snapshot;
    while (snapshot.size_bytes() < bytes) snapshot.Append("s" + record);
    return snapshot;
  };

  WriteAheadLog wal;
  EXPECT_FALSE(wal.CheckpointDue());
  const uint64_t first = fill_until_due(&wal);
  EXPECT_GE(first, kFloor);
  EXPECT_LT(first, kFloor + 1100);  // the record that crossed the floor

  // A 40 KiB snapshot: due again at 80 KiB, not at the floor.
  WriteAheadLog big = snapshot_of(40 * 1024);
  const uint64_t base = big.size_bytes();
  wal.Checkpoint(std::move(big));
  EXPECT_EQ(wal.size_bytes(), base);
  EXPECT_EQ(wal.base_bytes(), base);
  EXPECT_FALSE(wal.CheckpointDue());
  const uint64_t second = fill_until_due(&wal);
  EXPECT_GE(second, 2 * base);
  EXPECT_LT(second, 2 * base + 1100);

  // A small snapshot resets the reference: due again at the floor, not at
  // twice the previous snapshot or the pre-checkpoint size.
  wal.Checkpoint(snapshot_of(1));
  EXPECT_LT(wal.base_bytes(), 1100u);
  const uint64_t third = fill_until_due(&wal);
  EXPECT_GE(third, kFloor);
  EXPECT_LT(third, kFloor + 1100);

  // The log reads back as the snapshot followed by the tail.
  std::vector<std::string> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_GT(records.size(), 1u);
  EXPECT_EQ(records.front(), "s" + record);
  EXPECT_EQ(records.back(), record);
}

TEST(MerkleTest, EmptyTreesHaveEqualRoots) {
  MerkleTree a(8), b(8);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  EXPECT_TRUE(MerkleTree::DiffLeaves(a, b).empty());
}

TEST(MerkleTest, SingleKeyChangesRoot) {
  MerkleTree a(8), b(8);
  a.UpdateKey(Fnv1a64("k"), 0, 123);
  EXPECT_NE(a.RootDigest(), b.RootDigest());
  auto diff = MerkleTree::DiffLeaves(a, b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], a.BucketFor("k"));
}

TEST(MerkleTest, SameContentsSameRootRegardlessOfOrder) {
  MerkleTree a(8), b(8);
  a.UpdateKey(Fnv1a64("x"), 0, 1);
  a.UpdateKey(Fnv1a64("y"), 0, 2);
  b.UpdateKey(Fnv1a64("y"), 0, 2);
  b.UpdateKey(Fnv1a64("x"), 0, 1);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTest, UpdateThenRevertRestoresRoot) {
  MerkleTree a(8);
  const uint64_t empty_root = a.RootDigest();
  a.UpdateKey(Fnv1a64("k"), 0, 5);
  a.UpdateKey(Fnv1a64("k"), 5, 0);  // remove
  EXPECT_EQ(a.RootDigest(), empty_root);
}

TEST(MerkleTest, ModifyExistingKey) {
  MerkleTree a(8), b(8);
  a.UpdateKey(Fnv1a64("k"), 0, 5);
  b.UpdateKey(Fnv1a64("k"), 0, 5);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  a.UpdateKey(Fnv1a64("k"), 5, 9);
  EXPECT_NE(a.RootDigest(), b.RootDigest());
  b.UpdateKey(Fnv1a64("k"), 5, 9);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTest, DiffFindsExactlyDivergentBuckets) {
  MerkleTree a(10), b(10);
  // 100 shared keys.
  for (int i = 0; i < 100; ++i) {
    const std::string key = "shared" + std::to_string(i);
    a.UpdateKey(Fnv1a64(key), 0, static_cast<uint64_t>(i + 1));
    b.UpdateKey(Fnv1a64(key), 0, static_cast<uint64_t>(i + 1));
  }
  // 3 keys only in a.
  std::vector<std::string> extra = {"only-a-1", "only-a-2", "only-a-3"};
  for (const auto& key : extra) a.UpdateKey(Fnv1a64(key), 0, 42);
  auto diff = MerkleTree::DiffLeaves(a, b);
  // Every extra key's bucket is reported.
  for (const auto& key : extra) {
    EXPECT_NE(std::find(diff.begin(), diff.end(), a.BucketFor(key)),
              diff.end());
  }
  EXPECT_LE(diff.size(), extra.size());  // buckets may coincide
}

TEST(MerkleTest, DescentCostLogarithmicInDivergence) {
  MerkleTree a(12), b(12);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(i);
    a.UpdateKey(Fnv1a64(key), 0, static_cast<uint64_t>(i + 1));
    b.UpdateKey(Fnv1a64(key), 0, static_cast<uint64_t>(i + 1));
  }
  a.UpdateKey(Fnv1a64("divergent"), 0, 7);
  uint64_t compared = 0;
  auto diff = MerkleTree::DiffLeaves(a, b, &compared);
  EXPECT_EQ(diff.size(), 1u);
  // One divergent key: descent touches ~2 nodes per level, not 2^12 leaves.
  EXPECT_LE(compared, static_cast<uint64_t>(2 * 12 + 1));
}

class MerkleDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleDepthTest, RandomizedDiffMatchesGroundTruth) {
  const int depth = GetParam();
  Rng rng(static_cast<uint64_t>(depth) * 1000 + 1);
  MerkleTree a(depth), b(depth);
  std::vector<std::string> divergent_keys;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i);
    const uint64_t digest = rng.NextU64() | 1;  // nonzero
    a.UpdateKey(Fnv1a64(key), 0, digest);
    if (rng.NextBool(0.9)) {
      b.UpdateKey(Fnv1a64(key), 0, digest);
    } else {
      divergent_keys.push_back(key);
    }
  }
  auto diff = MerkleTree::DiffLeaves(a, b);
  for (const auto& key : divergent_keys) {
    EXPECT_NE(std::find(diff.begin(), diff.end(), a.BucketFor(key)),
              diff.end())
        << "missing bucket for divergent key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, MerkleDepthTest,
                         ::testing::Values(4, 8, 10, 14));

}  // namespace
}  // namespace evc

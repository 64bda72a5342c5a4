#include "replication/timeline_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace evc::repl {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class TimelineStoreTest : public ::testing::Test {
 protected:
  void Build(int servers = 3, sim::Time latency = 10 * kMillisecond) {
    sim_ = std::make_unique<sim::Simulator>(21);
    net_ = std::make_unique<sim::Network>(
        sim_.get(), std::make_unique<sim::ConstantLatency>(latency));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    cluster_ = std::make_unique<TimelineCluster>(rpc_.get(),
                                                 TimelineOptions{});
    servers_ = cluster_->AddServers(servers);
    client_ = net_->AddNode();
  }

  Result<uint64_t> WriteSync(const std::string& key,
                             const std::string& value) {
    std::optional<Result<uint64_t>> out;
    cluster_->Write(client_, key, value,
                    [&](Result<uint64_t> r) { out = std::move(r); });
    sim_->RunFor(2 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  Result<TimelineRead> ReadSync(sim::NodeId replica, const std::string& key,
                                TimelineReadLevel level,
                                uint64_t min_seqno = 0) {
    std::optional<Result<TimelineRead>> out;
    cluster_->Read(client_, replica, key, level, min_seqno,
                   [&](Result<TimelineRead> r) { out = std::move(r); });
    sim_->RunFor(2 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<TimelineCluster> cluster_;
  std::vector<sim::NodeId> servers_;
  sim::NodeId client_ = 0;
};

TEST_F(TimelineStoreTest, WriteAssignsIncreasingSeqnos) {
  Build();
  auto w1 = WriteSync("k", "v1");
  auto w2 = WriteSync("k", "v2");
  ASSERT_TRUE(w1.ok() && w2.ok());
  EXPECT_EQ(*w1, 1u);
  EXPECT_EQ(*w2, 2u);
}

TEST_F(TimelineStoreTest, CriticalReadSeesLatestFromAnyReplica) {
  Build();
  ASSERT_TRUE(WriteSync("k", "v1").ok());
  ASSERT_TRUE(WriteSync("k", "v2").ok());
  for (const sim::NodeId replica : cluster_->ReplicasOf("k")) {
    auto read = ReadSync(replica, "k", TimelineReadLevel::kCritical);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->found);
    EXPECT_EQ(read->value, "v2");
    EXPECT_EQ(read->seqno, 2u);
  }
}

TEST_F(TimelineStoreTest, AnyReadEventuallyConverges) {
  Build();
  ASSERT_TRUE(WriteSync("k", "v").ok());
  sim_->RunFor(kSecond);  // let replication drain
  for (const sim::NodeId replica : cluster_->ReplicasOf("k")) {
    auto read = ReadSync(replica, "k", TimelineReadLevel::kAny);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->value, "v");
  }
}

TEST_F(TimelineStoreTest, AnyReadCanBeStaleRightAfterWrite) {
  Build();
  // Issue the write but stop the clock before replication propagates.
  std::optional<Result<uint64_t>> write;
  cluster_->Write(client_, "k", "v",
                  [&](Result<uint64_t> r) { write = std::move(r); });
  // Run just enough for the write round-trip (client->master->client =
  // 2 hops x 10ms) but not the replication fan-out arrival + read.
  sim_->RunFor(21 * kMillisecond);
  ASSERT_TRUE(write.has_value() && write->ok());
  // A non-master replica read at kAny now: the replicate message (sent at
  // t=10ms, arriving t=20ms) may or may not have landed; VisibleSeqno lets
  // us check the ground truth.
  const auto replicas = cluster_->ReplicasOf("k");
  const sim::NodeId master = cluster_->MasterOf("k");
  EXPECT_EQ(cluster_->VisibleSeqno(master, "k"), 1u);
}

TEST_F(TimelineStoreTest, AtLeastReadForwardsWhenLocalTooStale) {
  Build();
  ASSERT_TRUE(WriteSync("k", "v1").ok());
  sim_->RunFor(kSecond);
  auto w2 = WriteSync("k", "v2");
  ASSERT_TRUE(w2.ok());
  // Don't wait for replication: require seqno >= 2 at a non-master replica.
  sim::NodeId non_master = 0;
  for (const sim::NodeId r : cluster_->ReplicasOf("k")) {
    if (r != cluster_->MasterOf("k")) {
      non_master = r;
      break;
    }
  }
  const auto forwarded_before = cluster_->stats().reads_forwarded;
  auto read = ReadSync(non_master, "k", TimelineReadLevel::kAtLeast, *w2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "v2");
  EXPECT_GE(read->seqno, 2u);
  // Either the replica was already fresh (replication landed during the
  // read RPC) or the read was forwarded; both satisfy the guarantee. Over
  // the whole test the forward path must have been exercised at least once
  // if the replica was stale at arrival.
  (void)forwarded_before;
}

TEST_F(TimelineStoreTest, WritesSerializeThroughMaster) {
  Build();
  // Two clients race writes; the master orders them.
  const sim::NodeId client2 = net_->AddNode();
  std::optional<uint64_t> s1, s2;
  cluster_->Write(client_, "k", "from-1", [&](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok());
    s1 = *r;
  });
  cluster_->Write(client2, "k", "from-2", [&](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok());
    s2 = *r;
  });
  sim_->RunFor(2 * kSecond);
  ASSERT_TRUE(s1.has_value() && s2.has_value());
  EXPECT_NE(*s1, *s2);  // distinct timeline positions
  // All replicas converge to the same final value.
  sim_->RunFor(kSecond);
  std::string final_value;
  for (const sim::NodeId replica : cluster_->ReplicasOf("k")) {
    auto read = ReadSync(replica, "k", TimelineReadLevel::kAny);
    ASSERT_TRUE(read.ok());
    if (final_value.empty()) final_value = read->value;
    EXPECT_EQ(read->value, final_value);
  }
}

TEST_F(TimelineStoreTest, MasterDownMakesWritesUnavailable) {
  Build();
  net_->SetNodeUp(cluster_->MasterOf("k"), false);
  auto write = WriteSync("k", "v");
  EXPECT_TRUE(write.status().IsTimedOut() || write.status().IsUnavailable());
  EXPECT_GE(cluster_->stats().writes_unavailable, 1u);
}

TEST_F(TimelineStoreTest, ReadsStayAvailableWhenMasterDown) {
  Build();
  ASSERT_TRUE(WriteSync("k", "v").ok());
  sim_->RunFor(kSecond);
  const sim::NodeId master = cluster_->MasterOf("k");
  net_->SetNodeUp(master, false);
  for (const sim::NodeId replica : cluster_->ReplicasOf("k")) {
    if (replica == master) continue;
    auto read = ReadSync(replica, "k", TimelineReadLevel::kAny);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->value, "v");
  }
}

TEST_F(TimelineStoreTest, CriticalReadUnavailableWhenMasterDown) {
  Build();
  ASSERT_TRUE(WriteSync("k", "v").ok());
  sim_->RunFor(kSecond);
  const sim::NodeId master = cluster_->MasterOf("k");
  net_->SetNodeUp(master, false);
  sim::NodeId non_master = 0;
  for (const sim::NodeId r : cluster_->ReplicasOf("k")) {
    if (r != master) {
      non_master = r;
      break;
    }
  }
  auto read = ReadSync(non_master, "k", TimelineReadLevel::kCritical);
  EXPECT_FALSE(read.ok());
}

TEST_F(TimelineStoreTest, ReplicaNeverAppliesOutOfOrder) {
  // Message duplication duplicates both replication messages and client
  // write RPCs (at-least-once delivery), so absolute seqnos are not
  // predictable — but the timeline invariant must hold: every replica
  // converges to exactly the master's (seqno, value), never past it and
  // never to a reordered older update.
  Build();
  net_->set_duplicate_rate(0.5);
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(WriteSync("k", "v" + std::to_string(i)).ok());
  }
  sim_->RunFor(2 * kSecond);
  const sim::NodeId master = cluster_->MasterOf("k");
  const uint64_t master_seqno = cluster_->VisibleSeqno(master, "k");
  EXPECT_GE(master_seqno, 20u);
  auto master_read = ReadSync(master, "k", TimelineReadLevel::kAny);
  ASSERT_TRUE(master_read.ok());
  for (const sim::NodeId replica : cluster_->ReplicasOf("k")) {
    EXPECT_EQ(cluster_->VisibleSeqno(replica, "k"), master_seqno);
    auto read = ReadSync(replica, "k", TimelineReadLevel::kAny);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->value, master_read->value);
  }
}

// Thousands of 1 KiB overwrites over 20 keys: each journal stays within
// the checkpoint rule's bound, and an amnesia crash right after any
// checkpoint, or of every server at the end, restores every record.
TEST_F(TimelineStoreTest, JournalsStayBoundedUnderOverwrites) {
  Build();
  constexpr int kKeys = 20;
  constexpr int kWrites = 3000;
  constexpr uint64_t kOneRecord = 1100;  // a 1 KiB value plus framing
  auto records = [this](sim::NodeId server) {
    std::vector<TimelineRead> out;
    for (int k = 0; k < kKeys; ++k) {
      out.push_back(cluster_->LocalRecord(server, "k" + std::to_string(k)));
    }
    return out;
  };
  auto expect_same = [](const std::vector<TimelineRead>& want,
                        const std::vector<TimelineRead>& got) {
    ASSERT_EQ(want.size(), got.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(want[k].found, got[k].found) << "k" << k;
      EXPECT_EQ(want[k].seqno, got[k].seqno) << "k" << k;
      EXPECT_EQ(want[k].value, got[k].value) << "k" << k;
    }
  };
  auto crash_and_restart = [this](sim::NodeId server) {
    net_->SetNodeUp(server, false);
    sim_->NotifyCrash(server);
    net_->SetNodeUp(server, true);
    sim_->NotifyRestart(server);
  };

  std::map<sim::NodeId, uint64_t> last_size;
  int checkpoints = 0;
  for (int i = 0; i < kWrites; ++i) {
    std::string value = std::to_string(i);
    value.resize(1024, '.');
    bool acked = false;
    cluster_->Write(client_, "k" + std::to_string(i % kKeys), value,
                    [&](Result<uint64_t> r) { acked = r.ok(); });
    sim_->RunFor(50 * kMillisecond);  // ack plus replication everywhere
    ASSERT_TRUE(acked) << "write " << i;
    for (const sim::NodeId s : servers_) {
      const WriteAheadLog& journal = cluster_->JournalOf(s);
      ASSERT_LT(journal.size_bytes(),
                std::max<uint64_t>(64 * 1024, 2 * journal.base_bytes()) +
                    kOneRecord)
          << "server " << s << " after write " << i;
      const uint64_t previous =
          std::exchange(last_size[s], journal.size_bytes());
      if (journal.size_bytes() > previous) continue;
      // The journal shrank, so this write's record triggered a checkpoint:
      // recovery must give it back along with every other key's record.
      ++checkpoints;
      const std::vector<TimelineRead> before = records(s);
      crash_and_restart(s);
      expect_same(before, records(s));
    }
  }
  EXPECT_GE(checkpoints, 3 * 20);  // every server checkpointed many times

  std::map<sim::NodeId, std::vector<TimelineRead>> before;
  for (const sim::NodeId s : servers_) before[s] = records(s);
  for (const sim::NodeId s : servers_) crash_and_restart(s);
  for (const sim::NodeId s : servers_) expect_same(before[s], records(s));
}

TEST_F(TimelineStoreTest, MissingKeyReadsNotFoundShape) {
  Build();
  auto read = ReadSync(servers_[0], "nope", TimelineReadLevel::kCritical);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->found);
  EXPECT_EQ(read->seqno, 0u);
}

TEST_F(TimelineStoreTest, AtLeastSatisfiedLocallyStillCountsAsStale) {
  // Regression: stale_reads_served only counted kAny. A kAtLeast read
  // satisfied locally (seqno >= min_seqno) but behind the master is every
  // bit as stale — the staleness benches must see it.
  Build();
  ASSERT_TRUE(WriteSync("k", "v1").ok());  // replicates everywhere (2s run)
  sim::NodeId non_master = 0;
  for (const sim::NodeId r : cluster_->ReplicasOf("k")) {
    if (r != cluster_->MasterOf("k")) {
      non_master = r;
      break;
    }
  }
  // The replica misses the second write: it is down when the replicate
  // message is sent, so it stays at seqno 1 while the master moves to 2.
  net_->SetNodeUp(non_master, false);
  ASSERT_TRUE(WriteSync("k", "v2").ok());
  net_->SetNodeUp(non_master, true);
  ASSERT_EQ(cluster_->VisibleSeqno(non_master, "k"), 1u);

  const uint64_t stale_before = cluster_->stats().stale_reads_served;
  auto read = ReadSync(non_master, "k", TimelineReadLevel::kAtLeast,
                       /*min_seqno=*/1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->seqno, 1u);  // floor met locally, master not consulted
  EXPECT_FALSE(read->min_seqno_unmet);
  EXPECT_EQ(cluster_->stats().stale_reads_served, stale_before + 1);
}

TEST_F(TimelineStoreTest, AtLeastBeyondMasterSurfacesUnmetFloor) {
  // Regression: a kAtLeast floor above the master's own seqno used to
  // return older data with no signal. Nothing fresher exists anywhere, so
  // the store serves what it has — but must say the floor was unmet.
  Build();
  ASSERT_TRUE(WriteSync("k", "v1").ok());
  const sim::NodeId master = cluster_->MasterOf("k");
  auto at_master = ReadSync(master, "k", TimelineReadLevel::kAtLeast,
                            /*min_seqno=*/5);
  ASSERT_TRUE(at_master.ok());
  EXPECT_EQ(at_master->value, "v1");
  EXPECT_TRUE(at_master->min_seqno_unmet);
  EXPECT_EQ(cluster_->stats().atleast_unmet, 1u);

  // Forwarded path: a non-master replica below the floor forwards at the
  // SAME level, so the master still evaluates (and flags) the floor. The
  // seed downgraded forwards to kAny, erasing min_seqno en route.
  sim::NodeId non_master = 0;
  for (const sim::NodeId r : cluster_->ReplicasOf("k")) {
    if (r != master) {
      non_master = r;
      break;
    }
  }
  auto forwarded = ReadSync(non_master, "k", TimelineReadLevel::kAtLeast,
                            /*min_seqno=*/5);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded->value, "v1");
  EXPECT_TRUE(forwarded->min_seqno_unmet);
  EXPECT_EQ(cluster_->stats().atleast_unmet, 2u);
}

}  // namespace
}  // namespace evc::repl

// Edge-cache tier: lease grant/serve/revoke protocol over the timeline
// store. The invariant under test everywhere: a cached entry served under a
// live lease is never behind an acked write on its key — writes block until
// every outstanding lease is revoked or has expired, and crash recovery
// fences writes for a full TTL in place of the forgotten lease table.

#include "cache/edge_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "sim/nemesis.h"

namespace evc::cache {
namespace {

using sim::kMillisecond;
using sim::kSecond;

constexpr sim::Time kTtl = 300 * kMillisecond;

class EdgeCacheTest : public ::testing::Test {
 protected:
  void Build(EdgeCacheOptions copt = {}, uint64_t seed = 11) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<sim::Network>(
        sim_.get(), std::make_unique<sim::ConstantLatency>(10 * kMillisecond));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    repl::TimelineOptions topt;
    topt.replication_factor = 3;
    topt.rpc_timeout = 2 * kSecond;  // a gated write can wait out a TTL
    cluster_ = std::make_unique<repl::TimelineCluster>(rpc_.get(), topt);
    servers_ = cluster_->AddServers(3);
    copt.lease_ttl = kTtl;
    tier_ = std::make_unique<EdgeCacheTier>(rpc_.get(), cluster_.get(), copt);
    a_ = tier_->AddClient(net_->AddNode());
    b_ = tier_->AddClient(net_->AddNode());
  }

  void TearDown() override { tier_.reset(); }  // gate uninstalls before cluster

  // Steps the simulator in small increments and stops as soon as the op
  // resolves: lease lifetimes are short relative to a fixed drain budget,
  // so running a flat 2s here would expire every lease before the test's
  // assertions get to look at it.
  template <typename T>
  Result<T> AwaitOp(std::optional<Result<T>>* out, sim::Time budget) {
    for (sim::Time waited = 0; !out->has_value() && waited < budget;
         waited += 5 * kMillisecond) {
      sim_->RunFor(5 * kMillisecond);
    }
    EVC_CHECK(out->has_value());
    return **out;
  }

  Result<CachedRead> GetSync(EdgeCacheClient* c, const std::string& key,
                             sim::Time budget = 2 * kSecond) {
    std::optional<Result<CachedRead>> out;
    c->Get(key, 0, [&](Result<CachedRead> r) { out = std::move(r); });
    return AwaitOp(&out, budget);
  }

  Result<uint64_t> PutSync(EdgeCacheClient* c, const std::string& key,
                           const std::string& value,
                           sim::Time budget = 3 * kSecond) {
    std::optional<Result<uint64_t>> out;
    c->Put(key, value, [&](Result<uint64_t> r) { out = std::move(r); });
    return AwaitOp(&out, budget);
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<repl::TimelineCluster> cluster_;
  std::vector<sim::NodeId> servers_;
  std::unique_ptr<EdgeCacheTier> tier_;
  EdgeCacheClient* a_ = nullptr;
  EdgeCacheClient* b_ = nullptr;
};

TEST_F(EdgeCacheTest, MissInstallsLeaseThenHitServesLocally) {
  Build();
  ASSERT_TRUE(PutSync(a_, "k", "v1").ok());
  auto first = GetSync(a_, "k");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->found);
  EXPECT_EQ(first->value, "v1");
  EXPECT_FALSE(first->from_cache);
  EXPECT_EQ(tier_->stats().misses, 1u);
  EXPECT_EQ(tier_->stats().grants, 1u);
  EXPECT_EQ(a_->CachedSeqno("k"), 1u);

  // A hit is served without touching the network: done runs synchronously.
  bool done_synchronously = false;
  a_->Get("k", 0, [&](Result<CachedRead> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->from_cache);
    EXPECT_EQ(r->value, "v1");
    done_synchronously = true;
  });
  EXPECT_TRUE(done_synchronously);
  EXPECT_EQ(tier_->stats().hits, 1u);
}

TEST_F(EdgeCacheTest, LeaseExpiryTurnsHitsBackIntoMisses) {
  Build();
  ASSERT_TRUE(PutSync(a_, "k", "v1").ok());
  ASSERT_TRUE(GetSync(a_, "k").ok());
  ASSERT_EQ(a_->CachedSeqno("k"), 1u);
  sim_->RunFor(kTtl + kMillisecond);
  EXPECT_EQ(a_->CachedSeqno("k"), 0u);  // live-lease view: nothing servable
  const uint64_t misses_before = tier_->stats().misses;
  auto read = GetSync(a_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(tier_->stats().misses, misses_before + 1);
}

TEST_F(EdgeCacheTest, WriteRevokesEveryHolderBeforeAck) {
  Build();
  ASSERT_TRUE(PutSync(a_, "k", "v1").ok());
  ASSERT_TRUE(GetSync(a_, "k").ok());
  ASSERT_TRUE(GetSync(b_, "k").ok());
  ASSERT_EQ(a_->CachedSeqno("k"), 1u);
  ASSERT_EQ(b_->CachedSeqno("k"), 1u);

  auto put = PutSync(b_, "k", "v2");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(*put, 2u);
  // By ack time both copies are gone: the gate ran the revoke fan-out to
  // completion before the master applied the write.
  EXPECT_EQ(a_->CachedSeqno("k"), 0u);
  EXPECT_EQ(b_->CachedSeqno("k"), 0u);
  EXPECT_EQ(tier_->stats().writes_gated, 1u);
  EXPECT_GE(tier_->stats().revokes_acked, 2u);

  // No stale serve afterwards: the next read fetches v2.
  auto read = GetSync(a_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(read->value, "v2");
}

TEST_F(EdgeCacheTest, UnreachableHolderIsWaitedOutNotServedAround) {
  EdgeCacheOptions copt;
  copt.revoke_timeout = 50 * kMillisecond;
  copt.revoke_attempts = 2;
  Build(copt);
  ASSERT_TRUE(PutSync(b_, "k", "v1").ok());
  const sim::Time granted_after = sim_->Now();
  ASSERT_TRUE(GetSync(a_, "k").ok());
  ASSERT_EQ(a_->CachedSeqno("k"), 1u);

  // Gray-partition the holder: revokes can't reach it, but it still
  // considers itself healthy. The write may not be served around the lease
  // — it must wait until the lease has expired on its own.
  net_->SetNodeUp(a_->node(), false);
  auto put = PutSync(b_, "k", "v2");
  ASSERT_TRUE(put.ok());
  // The lease was granted no earlier than `granted_after`, so it expires no
  // earlier than granted_after + ttl; the ack cannot precede that.
  EXPECT_GE(sim_->Now(), granted_after + kTtl);
  EXPECT_GE(tier_->stats().revokes_expired, 1u);

  // The partitioned holder's copy died with the lease: once healed it has
  // nothing servable and reads through to the new value.
  net_->SetNodeUp(a_->node(), true);
  EXPECT_EQ(a_->CachedSeqno("k"), 0u);
  auto read = GetSync(a_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(read->value, "v2");
}

TEST_F(EdgeCacheTest, MasterCrashFencesWritesForOneTtl) {
  Build();
  ASSERT_TRUE(PutSync(a_, "k", "v1").ok());
  ASSERT_TRUE(GetSync(a_, "k").ok());  // an outstanding lease the crash forgets

  const sim::NodeId master = cluster_->MasterOf("k");
  sim::Nemesis nemesis(net_.get(), servers_, /*seed=*/5);
  nemesis.Execute(sim::FaultPlan()
                      .CrashAt(0, master)
                      .RestartAt(50 * kMillisecond, master));
  sim_->RunFor(60 * kMillisecond);
  const sim::Time restarted_at = sim_->Now();
  // Amnesia dropped the lease table; the fence stands in for it.
  EXPECT_EQ(tier_->OutstandingLeases(master), 0u);
  EXPECT_GE(tier_->FenceUntil(master), restarted_at);

  auto put = PutSync(b_, "k", "v2");
  ASSERT_TRUE(put.ok());
  // The write could not be acked while a forgotten pre-crash lease might
  // still be live: ack time >= restart + ttl (minus the 60ms already run).
  EXPECT_GE(sim_->Now(), restarted_at - 60 * kMillisecond + kTtl);
  EXPECT_GE(tier_->stats().writes_fenced, 1u);
}

TEST_F(EdgeCacheTest, MinSeqnoFloorBypassesAStaleEntry) {
  Build();
  ASSERT_TRUE(PutSync(a_, "k", "v1").ok());
  ASSERT_TRUE(GetSync(a_, "k").ok());
  ASSERT_EQ(a_->CachedSeqno("k"), 1u);
  // A session floor above the cached seqno must not be served from cache,
  // even under a live lease.
  std::optional<Result<CachedRead>> out;
  a_->Get("k", /*min_seqno=*/5, [&](Result<CachedRead> r) { out = std::move(r); });
  sim_->RunFor(2 * kSecond);
  ASSERT_TRUE(out.has_value() && out->ok());
  EXPECT_FALSE((*out)->from_cache);
  // The master itself is at seqno 1 < 5: the unmet floor is surfaced, not
  // silently swallowed (timeline kAtLeast semantics carried through).
  EXPECT_TRUE((*out)->min_seqno_unmet);
  EXPECT_EQ(tier_->stats().bypasses, 1u);
}

}  // namespace
}  // namespace evc::cache

#include "causal/causal_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

namespace evc::causal {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class CausalStoreTest : public ::testing::Test {
 protected:
  void Build(int dc_count = 3, uint64_t seed = 17) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs());
    wan_ = latency.get();
    net_ = std::make_unique<sim::Network>(sim_.get(), std::move(latency));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    cluster_ = std::make_unique<CausalCluster>(rpc_.get());
    dcs_ = cluster_->AddDatacenters(dc_count);
    for (int i = 0; i < dc_count; ++i) {
      wan_->AssignNode(dcs_[i], i % 3);
    }
  }

  CausalClient MakeClient(int dc) {
    const sim::NodeId node = net_->AddNode();
    wan_->AssignNode(node, dc % 3);
    return CausalClient(cluster_.get(), node, dcs_[dc]);
  }

  Result<WriteId> PutSync(CausalClient* client, const std::string& key,
                          const std::string& value) {
    std::optional<Result<WriteId>> out;
    client->Put(key, value, [&](Result<WriteId> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  Result<CausalRead> GetSync(CausalClient* client, const std::string& key) {
    std::optional<Result<CausalRead>> out;
    client->Get(key, [&](Result<CausalRead> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  sim::WanMatrixLatency* wan_ = nullptr;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<CausalCluster> cluster_;
  std::vector<sim::NodeId> dcs_;
};

TEST_F(CausalStoreTest, LocalPutGetRoundTrip) {
  Build();
  CausalClient client = MakeClient(0);
  auto put = PutSync(&client, "k", "v");
  ASSERT_TRUE(put.ok());
  auto get = GetSync(&client, "k");
  ASSERT_TRUE(get.ok());
  EXPECT_TRUE(get->found);
  EXPECT_EQ(get->value, "v");
  EXPECT_EQ(get->id, *put);
}

TEST_F(CausalStoreTest, ReplicatesToAllDatacenters) {
  Build();
  CausalClient client = MakeClient(0);
  ASSERT_TRUE(PutSync(&client, "k", "v").ok());
  sim_->RunFor(2 * kSecond);
  for (const sim::NodeId dc : dcs_) {
    const CausalRead read = cluster_->LocalRead(dc, "k");
    EXPECT_TRUE(read.found);
    EXPECT_EQ(read.value, "v");
  }
  EXPECT_TRUE(cluster_->Converged("k"));
}

TEST_F(CausalStoreTest, WriteVisibleLocallyBeforeRemotely) {
  Build();
  CausalClient client = MakeClient(0);
  std::optional<Result<WriteId>> put;
  client.Put("k", "v", [&](Result<WriteId> r) { put = std::move(r); });
  // Local DC round trip is sub-millisecond; the WAN hop is ~40-90 ms.
  sim_->RunFor(5 * kMillisecond);
  ASSERT_TRUE(put.has_value() && put->ok());  // acked locally already
  EXPECT_TRUE(cluster_->LocalRead(dcs_[0], "k").found);
  EXPECT_FALSE(cluster_->LocalRead(dcs_[1], "k").found);  // still in flight
  sim_->RunFor(kSecond);
  EXPECT_TRUE(cluster_->LocalRead(dcs_[1], "k").found);
}

TEST_F(CausalStoreTest, DependentWriteWaitsForDependency) {
  // The photo/comment scenario: dc0's client uploads a photo, reads it,
  // comments. If the comment's replication overtakes the photo's at dc1,
  // dc1 must buffer the comment until the photo lands.
  Build();
  CausalClient alice = MakeClient(0);
  ASSERT_TRUE(PutSync(&alice, "photo", "cat.jpg").ok());
  ASSERT_TRUE(GetSync(&alice, "photo").ok());
  ASSERT_TRUE(PutSync(&alice, "comment", "cute!").ok());
  sim_->RunFor(2 * kSecond);
  // After everything drains, both are visible everywhere...
  for (const sim::NodeId dc : dcs_) {
    EXPECT_TRUE(cluster_->LocalRead(dc, "photo").found);
    EXPECT_TRUE(cluster_->LocalRead(dc, "comment").found);
  }
}

TEST_F(CausalStoreTest, CommentNeverVisibleBeforePhotoAnywhere) {
  // Drive the same scenario but sample remote DCs at fine time steps: at no
  // instant may a DC show the comment without the photo.
  Build();
  CausalClient alice = MakeClient(0);
  ASSERT_TRUE(PutSync(&alice, "photo", "cat.jpg").ok());
  auto photo = GetSync(&alice, "photo");
  ASSERT_TRUE(photo.ok());
  std::optional<Result<WriteId>> comment;
  alice.Put("comment", "cute!",
            [&](Result<WriteId> r) { comment = std::move(r); });
  for (int step = 0; step < 2000; ++step) {
    sim_->RunFor(kMillisecond);
    for (const sim::NodeId dc : dcs_) {
      if (cluster_->LocalRead(dc, "comment").found) {
        EXPECT_TRUE(cluster_->LocalRead(dc, "photo").found)
            << "causality violated at dc " << dc << " t=" << sim_->Now();
      }
    }
  }
  ASSERT_TRUE(comment.has_value() && comment->ok());
}

TEST_F(CausalStoreTest, DeferredWritesAreCountedAndDrain) {
  // Force out-of-order arrival: dependency chains across datacenters with
  // asymmetric WAN latencies produce deferrals naturally. Create a chain:
  // dc0 writes a, dc2's client reads a (via dc2) and writes b.
  Build();
  CausalClient alice = MakeClient(0);
  ASSERT_TRUE(PutSync(&alice, "a", "1").ok());
  sim_->RunFor(2 * kSecond);  // a reaches everyone

  CausalClient carol = MakeClient(2);
  ASSERT_TRUE(GetSync(&carol, "a").ok());
  // Overwrite a at dc0 concurrently with carol's dependent write at dc2:
  // dc1 may receive carol's b (dep: a@v1) before or after. Either way no
  // causality violation and everything drains.
  ASSERT_TRUE(PutSync(&carol, "b", "2").ok());
  sim_->RunFor(3 * kSecond);
  for (const sim::NodeId dc : dcs_) {
    EXPECT_TRUE(cluster_->LocalRead(dc, "b").found);
    EXPECT_EQ(cluster_->PendingAt(dc), 0u);
  }
}

TEST_F(CausalStoreTest, ConcurrentWritesConvergeLww) {
  Build();
  CausalClient a = MakeClient(0);
  CausalClient b = MakeClient(1);
  std::optional<Result<WriteId>> ra, rb;
  a.Put("k", "from-a", [&](Result<WriteId> r) { ra = std::move(r); });
  b.Put("k", "from-b", [&](Result<WriteId> r) { rb = std::move(r); });
  sim_->RunFor(5 * kSecond);
  ASSERT_TRUE(ra.has_value() && ra->ok());
  ASSERT_TRUE(rb.has_value() && rb->ok());
  EXPECT_TRUE(cluster_->Converged("k"));
  // All DCs resolved to the same winner (the max (lamport, dc) id).
  const std::string winner = cluster_->LocalRead(dcs_[0], "k").value;
  EXPECT_TRUE(winner == "from-a" || winner == "from-b");
  for (const sim::NodeId dc : dcs_) {
    EXPECT_EQ(cluster_->LocalRead(dc, "k").value, winner);
  }
}

TEST_F(CausalStoreTest, NearestDependencyCollapseAfterWrite) {
  Build();
  CausalClient client = MakeClient(0);
  ASSERT_TRUE(PutSync(&client, "x", "1").ok());
  ASSERT_TRUE(GetSync(&client, "x").ok());
  ASSERT_TRUE(PutSync(&client, "y", "2").ok());
  // After the write to y, the context is just {y}: x is transitively
  // covered.
  EXPECT_EQ(client.context().size(), 1u);
  EXPECT_EQ(client.context().begin()->first, "y");
}

TEST_F(CausalStoreTest, ReadsAreAlwaysLocalAndFast) {
  Build();
  CausalClient client = MakeClient(1);
  const sim::Time start = sim_->Now();
  sim::Time completed_at = -1;
  std::optional<Result<CausalRead>> get;
  client.Get("anything", [&](Result<CausalRead> r) {
    completed_at = sim_->Now();
    get = std::move(r);
  });
  sim_->RunFor(5 * kSecond);
  ASSERT_TRUE(get.has_value() && get->ok());
  EXPECT_FALSE((*get)->found);
  // One local round trip, far below WAN latency.
  EXPECT_LT(completed_at - start, 10 * kMillisecond);
}

TEST_F(CausalStoreTest, DependencyChainAcrossThreeDatacenters) {
  Build();
  CausalClient a = MakeClient(0);
  CausalClient b = MakeClient(1);
  CausalClient c = MakeClient(2);
  ASSERT_TRUE(PutSync(&a, "k1", "v1").ok());
  sim_->RunFor(2 * kSecond);
  ASSERT_TRUE(GetSync(&b, "k1").ok());
  ASSERT_TRUE(PutSync(&b, "k2", "v2").ok());
  sim_->RunFor(2 * kSecond);
  ASSERT_TRUE(GetSync(&c, "k2").ok());
  ASSERT_TRUE(PutSync(&c, "k3", "v3").ok());
  sim_->RunFor(3 * kSecond);
  // Everywhere, k3 implies k2 implies k1.
  for (const sim::NodeId dc : dcs_) {
    ASSERT_TRUE(cluster_->LocalRead(dc, "k3").found);
    EXPECT_TRUE(cluster_->LocalRead(dc, "k2").found);
    EXPECT_TRUE(cluster_->LocalRead(dc, "k1").found);
  }
}

}  // namespace
}  // namespace evc::causal

#include "crdt/op_crdts.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crdt/geo_broadcast.h"

namespace evc::crdt {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// One op-based CRDT replicated by GeoBroadcast over the three-region WAN.
// Heavy jitter reorders ops in flight and duplication delivers some twice,
// so the broadcast must hand each replica every op exactly once (and, with
// `causal`, in causal order).
template <typename Crdt>
class OpReplicas {
 public:
  OpReplicas(std::vector<Crdt> initial, bool causal, uint64_t seed)
      : replicas(std::move(initial)), sim_(seed) {
    auto latency = std::make_unique<sim::WanMatrixLatency>(
        sim::WanMatrixLatency::ThreeRegionBaseUs(), /*jitter=*/3.0);
    auto* wan = latency.get();
    net_ = std::make_unique<sim::Network>(&sim_, std::move(latency));
    net_->set_duplicate_rate(0.3);
    GeoBroadcastOptions options;
    options.causal = causal;
    gb_ = std::make_unique<GeoBroadcast>(net_.get(), options);
    for (size_t i = 0; i < replicas.size(); ++i) {
      const sim::NodeId node = net_->AddNode();
      wan->AssignNode(node, static_cast<uint32_t>(i % 3));
      gb_->AddMember(node, [this, i](uint32_t, const sim::Payload& op) {
        replicas[i].Apply(op.Peek<typename Crdt::Op>());
      });
    }
  }

  void Publish(uint32_t origin, typename Crdt::Op op) {
    gb_->Publish(origin, std::move(op));
  }
  void RunFor(sim::Time duration) { sim_.RunFor(duration); }
  void Settle() { sim_.RunFor(10 * kSecond); }

  std::vector<Crdt> replicas;

 private:
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<GeoBroadcast> gb_;
};

// ---------------------------------------------------------------------------
// OpCounter: needs exactly-once delivery only, so arrival order suffices.
// ---------------------------------------------------------------------------

TEST(OpCounterTest, ConvergesUnderAnyDeliveryOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    OpReplicas<OpCounter> h(std::vector<OpCounter>(3), /*causal=*/false,
                            seed);
    h.Publish(0, OpCounter::MakeIncrement(5));
    h.Publish(1, OpCounter::MakeIncrement(-2));
    h.Publish(2, OpCounter::MakeIncrement(10));
    h.Settle();
    for (const auto& c : h.replicas) EXPECT_EQ(c.Value(), 13) << seed;
  }
}

TEST(OpCounterTest, InterleavedIncrementsAllCounted) {
  for (bool causal : {true, false}) {
    OpReplicas<OpCounter> h(std::vector<OpCounter>(2), causal, /*seed=*/5);
    Rng rng(5);
    int64_t expected = 0;
    for (int i = 0; i < 200; ++i) {
      const int64_t delta = rng.NextInRange(-3, 3);
      expected += delta;
      h.Publish(static_cast<uint32_t>(rng.NextBounded(2)),
                OpCounter::MakeIncrement(delta));
      if (rng.NextBool(0.2)) h.RunFor(20 * kMillisecond);
    }
    h.Settle();
    EXPECT_EQ(h.replicas[0].Value(), expected) << "causal=" << causal;
    EXPECT_EQ(h.replicas[1].Value(), expected) << "causal=" << causal;
  }
}

// ---------------------------------------------------------------------------
// OpOrSet (requires causal order)
// ---------------------------------------------------------------------------

struct OrSetHarness : OpReplicas<OpOrSet> {
  OrSetHarness(uint32_t n, uint64_t seed)
      : OpReplicas<OpOrSet>(Sets(n), /*causal=*/true, seed) {}
  static std::vector<OpOrSet> Sets(uint32_t n) {
    std::vector<OpOrSet> sets;
    for (uint32_t r = 0; r < n; ++r) sets.emplace_back(r);
    return sets;
  }
  void Add(uint32_t r, const std::string& e) {
    Publish(r, replicas[r].MakeAdd(e));
  }
  void Remove(uint32_t r, const std::string& e) {
    Publish(r, replicas[r].MakeRemove(e));
  }
};

TEST(OpOrSetTest, AddRemoveLocal) {
  OrSetHarness h(2, /*seed=*/1);
  h.Add(0, "x");
  EXPECT_TRUE(h.replicas[0].Contains("x"));
  h.Remove(0, "x");
  EXPECT_FALSE(h.replicas[0].Contains("x"));
  h.Settle();
  EXPECT_FALSE(h.replicas[1].Contains("x"));
}

TEST(OpOrSetTest, ConcurrentAddSurvivesRemove) {
  OrSetHarness h(2, /*seed=*/2);
  h.Add(0, "beer");
  h.Settle();
  // Concurrent: r0 removes (observing r0's tag), r1 adds a fresh tag.
  h.Remove(0, "beer");
  h.Add(1, "beer");
  h.Settle();
  EXPECT_TRUE(h.replicas[0].Contains("beer"));
  EXPECT_TRUE(h.replicas[1].Contains("beer"));
  EXPECT_TRUE(h.replicas[0] == h.replicas[1]);
}

TEST(OpOrSetTest, RandomScriptConverges) {
  Rng rng(11);
  OrSetHarness h(3, /*seed=*/11);
  const char* items[] = {"a", "b", "c"};
  for (int step = 0; step < 300; ++step) {
    const uint32_t r = static_cast<uint32_t>(rng.NextBounded(3));
    const std::string item = items[rng.NextBounded(3)];
    if (rng.NextBool(0.55)) {
      h.Add(r, item);
    } else {
      h.Remove(r, item);
    }
    if (rng.NextBool(0.3)) h.RunFor(20 * kMillisecond);
  }
  h.Settle();
  EXPECT_TRUE(h.replicas[0] == h.replicas[1]);
  EXPECT_TRUE(h.replicas[1] == h.replicas[2]);
}

}  // namespace
}  // namespace evc::crdt

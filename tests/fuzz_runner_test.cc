// The fuzz runner's checks see real data: a fake StoreUnderTest that keeps
// one perfectly replicated register per key commits exactly one violation
// per case, and the claim the store's table row makes must fail and name
// it. A golden summary's "forks=0" or "conv=ok" proves nothing if the check
// behind it ran over an empty or partial history; this test would catch
// that. Each fault-free run must meet every claim, so each verdict is the
// fault's alone.

#include "verify/fuzz.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace evc::verify {
namespace {

enum class Fault {
  kNone,
  kLostWrite,         ///< every replica forgets one key's latest write
  kDivergence,        ///< one replica holds a key the others do not
  kStaleRead,         ///< reads return the key's first value
  kFork,              ///< every write claims timeline position 1
  /// A session sees only its own writes to k0, though writes to other keys
  /// depend on the latest k0 write, whoever made it.
  kMissedDependency,
};

class FakeStore : public StoreUnderTest {
 public:
  FakeStore(sim::Rpc* rpc, Fault fault) : fault_(fault) {
    for (int i = 0; i < 3; ++i) nodes_.push_back(rpc->network()->AddNode());
  }

  std::vector<sim::NodeId> FaultTargets() const override { return nodes_; }

  // Writes apply at once to every replica. Each carries a dependency on the
  // latest write of every key, as a causal store's context would.
  void Put(int session, const std::string& key, const std::string& value,
           Done done) override {
    OpOutcome out{.ok = true};
    for (const auto& [dep_key, writes] : writes_) {
      out.deps.push_back({dep_key, writes.back().id});
    }
    std::vector<OpOutcome>& writes = writes_[key];
    out.observed = {value};
    out.seqno = fault_ == Fault::kFork ? 1 : writes.size() + 1;
    out.id = {++lamport_, 0};
    if (!writes.empty()) superseded_.insert(writes.back().observed[0]);
    writes.push_back(out);
    own_[{key, session}] = out;
    out.observed.clear();
    done(std::move(out));
  }

  void Get(int session, const std::string& key, Done done) override {
    if (fault_ == Fault::kMissedDependency && key == "k0") {
      auto own = own_.find({key, session});
      return done(own == own_.end() ? OpOutcome{.ok = true} : own->second);
    }
    auto it = writes_.find(key);
    if (it == writes_.end()) return done({.ok = true});
    done(fault_ == Fault::kStaleRead ? it->second.front()
                                     : it->second.back());
  }

  std::optional<std::vector<ReplicaState>> Snapshot() override {
    ReplicaState state;
    for (const auto& [key, writes] : writes_) {
      state[key] = writes.back().observed;
    }
    if (fault_ == Fault::kLostWrite && !state.empty()) {
      state.erase(state.begin());
    }
    std::vector<ReplicaState> states(nodes_.size(), state);
    if (fault_ == Fault::kDivergence) states[1]["phantom"] = {"x"};
    return states;
  }

  // A register keeps only its last write.
  bool Covered(const AckedWrite& w, const std::vector<std::string>&) override {
    return superseded_.contains(w.value);
  }

 private:
  const Fault fault_;
  std::vector<sim::NodeId> nodes_;
  /// Key -> the outcome of every write to it, its value in `observed`.
  std::map<std::string, std::vector<OpOutcome>> writes_;
  std::map<std::pair<std::string, int>, OpOutcome> own_;  // (key, session)
  std::set<std::string> superseded_;
  uint64_t lamport_ = 0;
};

struct Case {
  const char* name;
  Fault fault;
  FuzzStore row;  ///< whose claims are checked
  const char* why;
};

FuzzReport RunFake(FuzzStore row, Fault fault) {
  FuzzOptions options = DefaultFuzzOptions(row, 7);
  options.sessions = 3;
  options.ops_per_session = 8;
  // The linearizability check reads the history as one register.
  options.keyspace = row == FuzzStore::kPaxos ? 1 : 2;
  return RunFuzzSeed(options, [fault](sim::Rpc* rpc) {
    return std::make_unique<FakeStore>(rpc, fault);
  });
}

TEST(FuzzRunnerTest, EachViolationFailsTheClaimThatForbidsIt) {
  const Case kCases[] = {
      {"lost acked write", Fault::kLostWrite, FuzzStore::kQuorumStrict,
       "lost an acked write"},
      {"divergent replicas", Fault::kDivergence, FuzzStore::kQuorumStrict,
       "replicas failed to converge"},
      {"stale read under a session claim", Fault::kStaleRead,
       FuzzStore::kQuorumStrict, "session guarantee violated"},
      {"timeline fork", Fault::kFork, FuzzStore::kTimeline,
       "record timeline forked"},
      {"missed causal dependency", Fault::kMissedDependency,
       FuzzStore::kCausal, "causal consistency violated"},
      {"non-linearizable read", Fault::kStaleRead, FuzzStore::kPaxos,
       "history is not linearizable"},
  };
  for (const Case& c : kCases) {
    const FuzzReport clean = RunFake(c.row, Fault::kNone);
    std::string why;
    EXPECT_TRUE(clean.MeetsClaims(&why))
        << c.name << " control: " << why << "\n" << clean.Summary();
    EXPECT_GT(clean.writes_acked, 0u) << c.name;
    EXPECT_GT(clean.reads_ok, 0u) << c.name;

    const FuzzReport faulty = RunFake(c.row, c.fault);
    why.clear();
    EXPECT_FALSE(faulty.MeetsClaims(&why)) << c.name << "\n"
                                           << faulty.Summary();
    EXPECT_EQ(why, c.why) << c.name << "\n" << faulty.Summary();
  }
}

}  // namespace
}  // namespace evc::verify

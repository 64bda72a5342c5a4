#include "sim/rpc.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace evc::sim {
namespace {

struct EchoReq {
  std::string text;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : sim_(7),
        net_(&sim_, std::make_unique<ConstantLatency>(5 * kMillisecond)),
        rpc_(&net_) {
    client_ = net_.AddNode();
    server_ = net_.AddNode();
  }

  Simulator sim_;
  Network net_;
  Rpc rpc_;
  NodeId client_;
  NodeId server_;
};

TEST_F(RpcTest, RoundTripDeliversReply) {
  rpc_.RegisterHandler(server_, "echo",
                       [](NodeId, Payload req, RpcResponder respond) {
                         auto r = std::move(req).Take<EchoReq>();
                         respond(r.text + "!");
                       });
  std::string reply;
  Time completed_at = -1;
  rpc_.Call(client_, server_, "echo", EchoReq{"hi"}, kSecond,
            [&](Result<Payload> r) {
              ASSERT_TRUE(r.ok());
              reply = std::move(*r).Take<std::string>();
              completed_at = sim_.Now();
            });
  sim_.Run();
  EXPECT_EQ(reply, "hi!");
  EXPECT_EQ(completed_at, 10 * kMillisecond);  // request + reply latency
}

TEST_F(RpcTest, ServerErrorPropagates) {
  rpc_.RegisterHandler(server_, "fail",
                       [](NodeId, Payload, RpcResponder respond) {
                         respond(Status::NotFound("nope"));
                       });
  Status got;
  rpc_.Call(client_, server_, "fail", EchoReq{}, kSecond,
            [&](Result<Payload> r) { got = r.status(); });
  sim_.Run();
  EXPECT_TRUE(got.IsNotFound());
  EXPECT_EQ(got.message(), "nope");
}

TEST_F(RpcTest, TimeoutWhenServerCrashed) {
  rpc_.RegisterHandler(server_, "echo",
                       [](NodeId, Payload, RpcResponder respond) {
                         respond(1);
                       });
  net_.SetNodeUp(server_, false);
  Status got;
  Time completed_at = -1;
  rpc_.Call(client_, server_, "echo", EchoReq{}, 100 * kMillisecond,
            [&](Result<Payload> r) {
              got = r.status();
              completed_at = sim_.Now();
            });
  sim_.Run();
  EXPECT_TRUE(got.IsTimedOut());
  EXPECT_EQ(completed_at, 100 * kMillisecond);
}

TEST_F(RpcTest, TimeoutWhenPartitioned) {
  rpc_.RegisterHandler(server_, "echo",
                       [](NodeId, Payload, RpcResponder respond) {
                         respond(1);
                       });
  net_.Partition({{client_}, {server_}});
  Status got;
  rpc_.Call(client_, server_, "echo", EchoReq{}, 50 * kMillisecond,
            [&](Result<Payload> r) { got = r.status(); });
  sim_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsIgnored) {
  // Server replies asynchronously after the client's timeout.
  rpc_.RegisterHandler(
      server_, "slow", [this](NodeId, Payload, RpcResponder respond) {
        sim_.ScheduleAfter(500 * kMillisecond,
                           [respond] { respond(1); });
      });
  int callbacks = 0;
  Status first;
  rpc_.Call(client_, server_, "slow", EchoReq{}, 50 * kMillisecond,
            [&](Result<Payload> r) {
              ++callbacks;
              first = r.status();
            });
  sim_.Run();
  EXPECT_EQ(callbacks, 1);  // exactly once
  EXPECT_TRUE(first.IsTimedOut());
}

// A call id names a slot and that slot's generation. Call B is issued from
// A's timeout, while A's slot is the only free one, so B reuses it; A's
// reply then arrives while B is in flight. Matching by slot alone would
// hand A's reply to B.
TEST_F(RpcTest, ReplyForAReusedCallSlotIsLate) {
  // Each request names how long the server waits before answering it.
  rpc_.RegisterHandler(
      server_, "wait", [this](NodeId, Payload req, RpcResponder respond) {
        const std::string text = std::move(req).Take<EchoReq>().text;
        const Time wait = text == "A" ? 150 * kMillisecond
                                      : 200 * kMillisecond;
        sim_.ScheduleAfter(wait, [respond, text] { respond(text); });
      });
  const obs::Counter& late =
      sim_.metrics().global().CounterFor("rpc.late_replies");
  Status a_status;
  int b_callbacks = 0;
  std::string b_reply;
  Time b_completed_at = -1;
  uint64_t late_when_b_completed = 0;
  rpc_.Call(client_, server_, "wait", EchoReq{"A"}, 100 * kMillisecond,
            [&](Result<Payload> a) {
              a_status = a.status();
              rpc_.Call(client_, server_, "wait", EchoReq{"B"}, kSecond,
                        [&](Result<Payload> b) {
                          ++b_callbacks;
                          ASSERT_TRUE(b.ok());
                          b_reply = std::move(*b).Take<std::string>();
                          b_completed_at = sim_.Now();
                          late_when_b_completed = late.value();
                        });
            });
  // A times out at 100 ms; its reply is sent at 155 ms and lands at 160 ms.
  sim_.RunUntil(161 * kMillisecond);
  EXPECT_TRUE(a_status.IsTimedOut());
  EXPECT_EQ(late.value(), 1u);
  EXPECT_EQ(b_callbacks, 0);
  // B (issued at 100 ms) is answered at 305 ms and completes at 310 ms.
  sim_.Run();
  EXPECT_EQ(b_callbacks, 1);
  EXPECT_EQ(b_reply, "B");
  EXPECT_EQ(b_completed_at, 310 * kMillisecond);
  EXPECT_EQ(late_when_b_completed, 1u);
  EXPECT_EQ(late.value(), 1u);
  EXPECT_EQ(rpc_.calls_issued(), 2u);
}

TEST_F(RpcTest, AsynchronousServerReplyWorks) {
  rpc_.RegisterHandler(
      server_, "defer", [this](NodeId, Payload, RpcResponder respond) {
        sim_.ScheduleAfter(20 * kMillisecond,
                           [respond] { respond(std::string("late")); });
      });
  std::string reply;
  rpc_.Call(client_, server_, "defer", EchoReq{}, kSecond,
            [&](Result<Payload> r) {
              ASSERT_TRUE(r.ok());
              reply = std::move(*r).Take<std::string>();
            });
  sim_.Run();
  EXPECT_EQ(reply, "late");
}

TEST_F(RpcTest, ManyConcurrentCallsMatchReplies) {
  rpc_.RegisterHandler(server_, "id",
                       [](NodeId, Payload req, RpcResponder respond) {
                         respond(std::move(req).Take<int>());
                       });
  int matched = 0;
  for (int i = 0; i < 100; ++i) {
    rpc_.Call(client_, server_, "id", i, kSecond, [&, i](Result<Payload> r) {
      ASSERT_TRUE(r.ok());
      if (std::move(*r).Take<int>() == i) ++matched;
    });
  }
  sim_.Run();
  EXPECT_EQ(matched, 100);
}

TEST_F(RpcTest, UnknownMethodTimesOut) {
  Status got;
  rpc_.Call(client_, server_, "no-such-method", EchoReq{}, 30 * kMillisecond,
            [&](Result<Payload> r) { got = r.status(); });
  sim_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(RpcTest, SelfCallWorks) {
  rpc_.RegisterHandler(client_, "self",
                       [](NodeId, Payload, RpcResponder respond) {
                         respond(std::string("me"));
                       });
  std::string reply;
  rpc_.Call(client_, client_, "self", EchoReq{}, kSecond,
            [&](Result<Payload> r) {
              ASSERT_TRUE(r.ok());
              reply = std::move(*r).Take<std::string>();
            });
  sim_.Run();
  EXPECT_EQ(reply, "me");
}

}  // namespace
}  // namespace evc::sim

// Export-layer tests: JSON round trips, deterministic serialization, and
// the end-to-end guarantee that two same-seed simulated runs export
// byte-identical metrics and trace documents.

#include "obs/export.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/json.h"
#include "sim/rpc.h"

namespace evc::obs {
namespace {

TEST(Json, DumpSortsObjectKeysAndRoundTrips) {
  Json::Object o;
  o["zeta"] = Json(1);
  o["alpha"] = Json(2.5);
  o["mid"] = Json("s");
  o["flag"] = Json(true);
  o["nothing"] = Json();
  Json::Array a;
  a.push_back(Json(1));
  a.push_back(Json("two"));
  o["list"] = Json(std::move(a));
  const Json doc{std::move(o)};

  const std::string compact = doc.Dump();
  EXPECT_EQ(compact,
            "{\"alpha\":2.5,\"flag\":true,\"list\":[1,\"two\"],"
            "\"mid\":\"s\",\"nothing\":null,\"zeta\":1}");

  auto reparsed = Json::Parse(compact);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), compact);
  // Pretty output parses back to the same document too.
  auto pretty = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty->Dump(), compact);
}

TEST(Json, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(Json::Parse("{} x").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_TRUE(Json::Parse(" {\"a\": [1, 2]} ").ok());
}

TEST(RegistryToJson, EmitsAllInstrumentKindsNameSorted) {
  MetricsRegistry reg;
  reg.CounterFor("b.count").Inc(3);
  reg.CounterFor("a.count").Inc(1);
  reg.GaugeFor("level").Set(2.5);
  reg.HistogramFor("lat").Add(10.0);
  reg.HistogramFor("lat").Add(20.0);
  const Json doc = RegistryToJson(reg);
  const Json* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().at("a.count").AsInt(), 1);
  EXPECT_EQ(counters->AsObject().at("b.count").AsInt(), 3);
  EXPECT_DOUBLE_EQ(doc.Find("gauges")->AsObject().at("level").AsDouble(), 2.5);
  const Json& h = doc.Find("histograms")->AsObject().at("lat");
  EXPECT_EQ(h.Find("count")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(h.Find("min")->AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(h.Find("max")->AsDouble(), 20.0);
  // First key of the counters object is the lexicographically smallest.
  EXPECT_EQ(counters->AsObject().begin()->first, "a.count");
}

// Runs a small RPC workload (some calls succeed, some hit a dead server and
// time out) and returns the serialized metrics + trace documents.
struct RunOutput {
  std::string metrics;
  std::string trace;
  std::string trace_csv;
};

RunOutput RunWorkload(uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             sim::kMillisecond, 20 * sim::kMillisecond));
  sim::Rpc rpc(&net);
  const sim::NodeId client = net.AddNode();
  const sim::NodeId server = net.AddNode();
  const sim::NodeId dead = net.AddNode();
  net.SetNodeUp(dead, false);
  rpc.RegisterHandler(server, "echo",
                      [](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
                        respond(std::move(req));
                      });
  for (int i = 0; i < 20; ++i) {
    rpc.Call(client, server, "echo", std::string("x"), sim::kSecond,
             [](Result<sim::Payload>) {});
    if (i % 5 == 0) {
      rpc.Call(client, dead, "echo", std::string("x"), 100 * sim::kMillisecond,
               [](Result<sim::Payload>) {});
    }
  }
  sim.Run();
  RunOutput out;
  out.metrics = MetricsToJson(sim.metrics()).Dump(2);
  out.trace = TraceToJson(sim.tracer()).Dump(2);
  out.trace_csv = TraceToCsv(sim.tracer());
  return out;
}

TEST(Determinism, SameSeedRunsExportByteIdenticalDocuments) {
  const RunOutput a = RunWorkload(42);
  const RunOutput b = RunWorkload(42);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.trace_csv, b.trace_csv);
  // And the run actually recorded something.
  EXPECT_NE(a.metrics.find("rpc.calls"), std::string::npos);
  EXPECT_NE(a.metrics.find("net.delivered"), std::string::npos);
  EXPECT_NE(a.trace.find("rpc.server.echo"), std::string::npos);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Latency jitter differs, so histograms (and span times) must differ.
  EXPECT_NE(RunWorkload(1).metrics, RunWorkload(2).metrics);
}

TEST(WorkloadInstrumentation, CountsCallsTimeoutsAndSpans) {
  sim::Simulator sim(7);
  sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(
                             5 * sim::kMillisecond));
  sim::Rpc rpc(&net);
  const sim::NodeId client = net.AddNode();
  const sim::NodeId server = net.AddNode();
  const sim::NodeId dead = net.AddNode();
  net.SetNodeUp(dead, false);
  rpc.RegisterHandler(server, "echo",
                      [](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
                        respond(std::move(req));
                      });
  rpc.Call(client, server, "echo", std::string("a"), sim::kSecond,
           [](Result<sim::Payload>) {});
  rpc.Call(client, dead, "echo", std::string("b"), 50 * sim::kMillisecond,
           [](Result<sim::Payload>) {});
  sim.Run();

  MetricsRegistry& g = sim.metrics().global();
  EXPECT_EQ(g.CounterFor("rpc.calls").value(), 2u);
  EXPECT_EQ(g.CounterFor("rpc.timeouts").value(), 1u);
  EXPECT_EQ(g.HistogramFor("rpc.call_latency_us").count(), 1u);
  EXPECT_DOUBLE_EQ(g.HistogramFor("rpc.call_latency_us").min(),
                   10.0 * sim::kMillisecond);

  // Client span for the successful call + its server child; the timed-out
  // call contributes a client span with outcome "timeout".
  int ok_client = 0, ok_server = 0, timeouts = 0;
  uint64_t client_span = 0;
  const Tracer& tracer = sim.tracer();
  for (const Span& s : tracer.finished()) {
    if (tracer.NameOf(s.name) == "rpc.echo" &&
        tracer.NameOf(s.outcome) == "ok") {
      ++ok_client;
      client_span = s.id;
    }
    if (tracer.NameOf(s.name) == "rpc.server.echo") ++ok_server;
    if (tracer.NameOf(s.outcome) == "timeout") ++timeouts;
  }
  EXPECT_EQ(ok_client, 1);
  EXPECT_EQ(ok_server, 1);
  EXPECT_EQ(timeouts, 1);
  for (const Span& s : tracer.finished()) {
    if (tracer.NameOf(s.name) == "rpc.server.echo") {
      EXPECT_EQ(s.parent, client_span);
    }
  }
}

TEST(WriteFile, WritesAndFailsOnBadPath) {
  const std::string path = ::testing::TempDir() + "/obs_export_test.json";
  ASSERT_TRUE(WriteFile(path, "{}\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "{}\n");
  EXPECT_FALSE(WriteFile("/nonexistent-dir/x.json", "{}").ok());
}

}  // namespace
}  // namespace evc::obs

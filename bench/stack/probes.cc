#include "probes.h"

#include <memory>

#include "common/rng.h"
#include "resilience/resilient_rpc.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "storage/replica_storage.h"

namespace evc::stack {

namespace {

using sim::kMillisecond;
using sim::kSecond;

constexpr int kEvents = 50000;
constexpr int kMessages = 50000;
constexpr int kCalls = 20000;
constexpr int kPuts = 20000;
constexpr int kDraws = 100000;

struct Echo {
  uint64_t value = 0;
};

/// Lets every request straight through, so the gated probe measures the
/// gate hook itself (its closure and responder plumbing), not queueing.
class PassThroughGate : public sim::RequestGate {
 public:
  void Admit(sim::MethodId, std::function<void()> dispatch,
             sim::RpcResponder) override {
    dispatch();
  }
  uint32_t LoadPercent() const override { return 0; }
};

/// Scheduler churn: schedule, cancel a third (the RPC-timer pattern), run.
double SimChurnNsPerEvent(uint64_t seed, HostTrace* trace) {
  return MedianNs(trace, "probe.sim_churn", [seed] {
           sim::Simulator sim(seed);
           Rng rng(seed);
           std::vector<sim::EventId> ids;
           ids.reserve(kEvents);
           uint64_t fired = 0;
           for (int i = 0; i < kEvents; ++i) {
             ids.push_back(sim.ScheduleAfter(
                 rng.NextInRange(1, 10 * kMillisecond), [&fired] { ++fired; }));
           }
           for (int i = 0; i < kEvents; i += 3) sim.Cancel(ids[i]);
           sim.RunUntil(20 * kMillisecond);
           EVC_CHECK(fired == kEvents - (kEvents + 2) / 3);
         }) /
         kEvents;
}

double NetNsPerMessage(uint64_t seed, HostTrace* trace) {
  return MedianNs(trace, "probe.net_send", [seed] {
           sim::Simulator sim(seed);
           sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(100));
           const sim::NodeId a = net.AddNode();
           const sim::NodeId b = net.AddNode();
           const sim::MsgType type = net.InternType("probe.msg");
           uint64_t delivered = 0;
           net.RegisterHandler(b, type, [&delivered](sim::Message) {
             ++delivered;
           });
           for (int i = 0; i < kMessages; ++i) {
             net.Send(a, b, type, Echo{static_cast<uint64_t>(i)});
           }
           sim.Run();
           EVC_CHECK(delivered == kMessages);
         }) /
         kMessages;
}

double RpcNsPerCall(uint64_t seed, bool gated, HostTrace* trace) {
  return MedianNs(trace, gated ? "probe.rpc_gated_call" : "probe.rpc_call",
                  [seed, gated] {
           sim::Simulator sim(seed);
           sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(100));
           sim::Rpc rpc(&net);
           const sim::NodeId client = net.AddNode();
           const sim::NodeId server = net.AddNode();
           const sim::MethodId method = rpc.InternMethod("probe.echo");
           rpc.RegisterHandler(server, method,
                               [](sim::NodeId, sim::Payload request,
                                  sim::RpcResponder respond) {
                                 respond(std::move(request).Take<Echo>());
                               });
           PassThroughGate gate;
           if (gated) rpc.SetRequestGate(server, &gate);
           uint64_t ok = 0;
           for (int i = 0; i < kCalls; ++i) {
             rpc.Call(client, server, method, Echo{static_cast<uint64_t>(i)},
                      1 * kSecond,
                      [&ok](Result<sim::Payload> r) { ok += r.ok() ? 1 : 0; });
           }
           sim.Run();
           rpc.SetRequestGate(server, nullptr);
           EVC_CHECK(ok == kCalls);
         }) /
         kCalls;
}

double ResilientNsPerCall(uint64_t seed, HostTrace* trace) {
  return MedianNs(trace, "probe.resilient_call", [seed] {
           sim::Simulator sim(seed);
           sim::Network net(&sim, std::make_unique<sim::ConstantLatency>(100));
           sim::Rpc rpc(&net);
           const sim::NodeId client = net.AddNode();
           const sim::NodeId server = net.AddNode();
           const sim::MethodId method = rpc.InternMethod("probe.echo");
           rpc.RegisterHandler(server, method,
                               [](sim::NodeId, sim::Payload request,
                                  sim::RpcResponder respond) {
                                 respond(std::move(request).Take<Echo>());
                               });
           resilience::ResilientRpc resilient(
               &rpc, client, resilience::ResilienceOptions{}, seed);
           uint64_t ok = 0;
           for (int i = 0; i < kCalls; ++i) {
             resilient.Call(server, method, Echo{static_cast<uint64_t>(i)},
                            resilience::CallOptions{},
                            [&ok](Result<sim::Payload> r) {
                              ok += r.ok() ? 1 : 0;
                            });
           }
           sim.Run();
           EVC_CHECK(ok == kCalls);
         }) /
         kCalls;
}

double StorageNsPerPut(HostTrace* trace) {
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) keys.push_back("user" + std::to_string(i));
  const std::string value(100, 'v');
  return MedianNs(trace, "probe.storage_put", [&keys, &value] {
           ReplicaStorage storage(1);
           for (int i = 0; i < kPuts; ++i) {
             storage.Put(keys[static_cast<size_t>(i) % keys.size()], value,
                         VersionVector{},
                         LamportTimestamp{static_cast<uint64_t>(i) + 1, 1});
           }
           EVC_CHECK(storage.key_count() == keys.size());
         }) /
         kPuts;
}

double WorkloadNsPerOp(const workload::WorkloadConfig& config, uint64_t seed,
                       HostTrace* trace) {
  return MedianNs(trace, "probe.workload_next", [&config, seed] {
           workload::WorkloadGenerator gen(config, seed);
           uint64_t writes = 0;
           for (int i = 0; i < kDraws; ++i) {
             writes += gen.Next().value.empty() ? 0 : 1;
           }
           EVC_CHECK(writes <= static_cast<uint64_t>(kDraws));
         }) /
         kDraws;
}

}  // namespace

std::map<std::string, double> RunLayerProbes(
    const workload::WorkloadConfig& config, uint64_t seed, HostTrace* trace) {
  std::map<std::string, double> out;
  out["sim.probe_ns_per_event"] = SimChurnNsPerEvent(seed, trace);
  out["net.probe_ns_per_msg"] = NetNsPerMessage(seed, trace);
  out["rpc.probe_ns_per_call"] = RpcNsPerCall(seed, false, trace);
  out["rpc.probe_ns_per_gated_call"] = RpcNsPerCall(seed, true, trace);
  out["resilience.probe_ns_per_call"] = ResilientNsPerCall(seed, trace);
  out["storage.probe_ns_per_put"] = StorageNsPerPut(trace);
  out["workload.ns_per_op"] = WorkloadNsPerOp(config, seed, trace);
  return out;
}

}  // namespace evc::stack

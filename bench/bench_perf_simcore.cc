// Simcore throughput: how the event-queue scheduler (an indexed 4-ary heap,
// sim/event_queue.h) scales with cluster size.
//
// A synthetic event-churn workload modeled on what the protocol layers
// actually put through the scheduler (message deliveries fanning out to
// random peers, plus the timer complement a resilient RPC call arms on
// every hop — timeout, retry deadline, hedge trigger — all cancelled by the
// next delivery, the pattern that dominates real runs) executes at
// N = 10 / 100 / 1000 nodes. Headline metrics:
//
//   events_per_sec_n<N>     raw scheduler throughput
//   sim_x_realtime_n<N>     sim-seconds per wall-second
//   calendar_scaling_n1000  events/sec at N=1000 / events/sec at N=10
//
// Each N runs kRuns times, interleaved (N = 10, 100, 1000, then again), so
// host-speed drift hits every N alike. Every run is a row of the throughput
// table; the metrics are the per-N medians, and the ratio divides two
// medians, so one lucky or unlucky reading cannot move the gate. The
// scaling ratio compares the scheduler with itself on one machine, so it
// is insensitive to absolute machine speed. A queue whose per-event cost
// grows with more than its pending events shows up as a falling ratio. The
// seed's binary heap scored 0.16-0.22 here: it heap-allocated every closure,
// as the seed's std::function did, tracked cancellation in a hash set, and
// kept each cancelled timer in the heap as a tombstone until its time came.
// The event heap removes a cancelled timer at once and sifts 24-byte keys,
// so its depth follows the pending events alone. The calendar_scales claim
// fails when the ratio drops under 0.40.

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

using namespace evc;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr uint64_t kSeed = 42;
constexpr int kChainsPerNode = 2;
// Every hop arms the timer complement a resilient RPC call does — overall
// timeout, retry deadline, and hedge trigger — and the next delivery
// disarms all of them. Almost every scheduled timer is cancelled before it
// fires, the dominant pattern real protocol runs feed the scheduler.
constexpr int kTimersPerHop = 4;
constexpr sim::Time kTimeout = 250 * kMillisecond;
// Interleaved runs per N; odd, so a median is one run's reading. One run of
// all three N takes about 0.35 s on a 4-core container.
constexpr int kRuns = 7;

// Wall-clock timing is the entire point of a throughput bench; nothing read
// here ever feeds back into simulation state, so determinism is preserved.
double WallSeconds(const std::function<void()>& fn) {
  // evc-lint: allow(wall-clock) reason=throughput bench timing; never sim-visible
  const auto start = std::chrono::steady_clock::now();
  fn();
  // evc-lint: allow(wall-clock) reason=throughput bench timing; never sim-visible
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

struct RunResult {
  uint64_t events = 0;
  double wall_s = 0;
  double sim_s = 0;
  double events_per_sec = 0;
  double sim_x_realtime = 0;
};

// Virtual-time horizon per cluster size, tuned so every configuration pushes
// a six-figure event count through the queue within the CI time budget.
sim::Time HorizonFor(int n) {
  if (n <= 10) return 60 * kSecond;
  if (n <= 100) return 10 * kSecond;
  return 2 * kSecond;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

RunResult RunChurn(int n) {
  sim::Simulator sim(kSeed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             1 * kMillisecond, 20 * kMillisecond));

  std::vector<sim::NodeId> nodes;
  nodes.reserve(n);
  for (int i = 0; i < n; ++i) nodes.push_back(net.AddNode());
  const sim::MsgType ping = net.InternType("perf.ping");

  // Shared workload RNG: events run in (when, seq) order, so the draw
  // sequence — and therefore the whole event graph — is a function of the
  // seed.
  auto rng = std::make_shared<Rng>(kSeed * 31);
  auto timers = std::make_shared<std::vector<sim::EventId>>(
      static_cast<size_t>(n) * kTimersPerHop, 0);

  for (int i = 0; i < n; ++i) {
    net.RegisterHandler(nodes[i], ping, [&sim, &net, &nodes, rng, timers, i,
                                         ping](sim::Message msg) {
      // The previous hop's timers are disarmed by this delivery.
      for (int t = 0; t < kTimersPerHop; ++t) {
        sim::EventId& slot = (*timers)[static_cast<size_t>(i) * kTimersPerHop +
                                       static_cast<size_t>(t)];
        if (slot != 0) sim.Cancel(slot);
        slot = sim.ScheduleAfter(kTimeout + t * 17 * kMillisecond, [] {});
      }
      const auto next = static_cast<size_t>(rng->NextBounded(nodes.size()));
      net.Send(msg.to, nodes[next], ping, msg.sent_at);
    });
  }

  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < kChainsPerNode; ++c) {
      const auto next = static_cast<size_t>(rng->NextBounded(nodes.size()));
      net.Send(nodes[i], nodes[next], ping, sim::Time{0});
    }
  }

  const sim::Time horizon = HorizonFor(n);
  RunResult r;
  r.wall_s = WallSeconds([&] { sim.RunUntil(horizon); });
  r.events = sim.events_executed();
  r.sim_s = static_cast<double>(horizon) / kSecond;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.sim_x_realtime = r.sim_s / r.wall_s;
  return r;
}

}  // namespace

int main() {
  bench::Harness h("perf_simcore");
  h.Note("workload",
         "2 ping chains/node, random peer fan-out, 4 staggered 250-300ms "
         "timers armed per hop and cancelled on the next delivery; uniform "
         "1-20ms latency");
  h.Table("throughput", {"run", "nodes", "events", "wall_s", "events_per_sec",
                          "sim_x_realtime"});

  constexpr int kSizes[] = {10, 100, 1000};
  std::map<int, std::vector<double>> events_per_sec;
  std::map<int, std::vector<double>> sim_x_realtime;
  for (int run = 1; run <= kRuns; ++run) {
    for (int n : kSizes) {
      const RunResult r = RunChurn(n);
      events_per_sec[n].push_back(r.events_per_sec);
      sim_x_realtime[n].push_back(r.sim_x_realtime);
      h.Row("throughput", {obs::Json(static_cast<double>(run)),
                           obs::Json(static_cast<double>(n)),
                           obs::Json(static_cast<double>(r.events)),
                           obs::Json(r.wall_s), obs::Json(r.events_per_sec),
                           obs::Json(r.sim_x_realtime)});
    }
  }
  for (int n : kSizes) {
    const std::string suffix = "_n" + std::to_string(n);
    h.Metric("events_per_sec" + suffix, Median(events_per_sec[n]));
    h.Metric("sim_x_realtime" + suffix, Median(sim_x_realtime[n]));
  }
  const double scaling =
      Median(events_per_sec[1000]) / Median(events_per_sec[10]);
  h.Metric("calendar_scaling_n1000", scaling);
  h.Claim("calendar_scales", scaling >= 0.40,
          "median events/sec at N=1000 over " + std::to_string(kRuns) +
              " interleaved runs stays at least 0.40x the median at N=10 "
              "(calendar_scaling_n1000; the event heap measures ~0.65, the "
              "seed's tombstoning binary heap ~0.2): below it, per-event "
              "scheduler cost grows with more than the pending events "
              "again");
  return h.Finish();
}

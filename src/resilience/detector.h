// Phi-accrual failure detector (Hayashibara et al., SRDS 2004).
//
// Instead of a boolean alive/dead verdict, the detector outputs a suspicion
// level phi = -log10(P(a heartbeat later than the observed silence)) from
// the history of inter-arrival times per peer. phi grows continuously with
// silence, so callers pick the alive/suspect threshold that matches their
// cost of a false positive. This is the *implementable* detector the
// resilience layer substitutes for the simulator's CanCommunicate oracle:
// it sees exactly what a real client sees (replies and their timing), so it
// is honest about gray failures — a slow or flaky link raises phi even
// though the oracle still reports the link as fine.
//
// Only heartbeat replies enter the interval distribution — request
// interarrivals are workload-shaped, not clock-shaped, and mixing them in
// would convict every peer the client merely stopped talking to. Request
// outcomes feed the side channels instead: a success clears the
// consecutive-failure fallback (OnAlive), a timeout increments it
// (OnFailure). Callers that run no heartbeat stream should consult only
// the fallback (ConsecutiveFailuresExceeded), never the phi verdict.

#ifndef EVC_RESILIENCE_DETECTOR_H_
#define EVC_RESILIENCE_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/node_table.h"
#include "sim/simulator.h"

namespace evc::resilience {

/// Suspect a peer once phi reaches this level. 8 means "the chance that
/// this silence is ordinary is one in 10^8" (the Akka default).
constexpr double kSuspectThreshold = 8.0;

/// Inter-arrival samples kept per peer (sliding window).
constexpr size_t kDetectorWindow = 100;

struct DetectorOptions {
  /// Fallback: suspect after this many consecutive failed attempts even if
  /// the interval history is too thin for a meaningful phi.
  int consecutive_failures_to_suspect = 3;
};

class PhiAccrualDetector {
 public:
  explicit PhiAccrualDetector(DetectorOptions options = {});

  /// Records a heartbeat reply from `peer`: enters the interval window.
  void OnArrival(uint32_t peer, sim::Time now);

  /// Records a non-heartbeat sign of life (any successful request): clears
  /// the consecutive-failure fallback without touching the interval window.
  void OnAlive(uint32_t peer);

  /// Records a failed attempt against `peer` (timeout). Failures do not
  /// enter the interval window — silence already raises phi — but they feed
  /// the consecutive-failure fallback.
  void OnFailure(uint32_t peer, sim::Time now);

  /// Current suspicion level for `peer`. 0 for a peer never heard from
  /// (optimism: an unknown peer is not suspected; the breaker and attempt
  /// timeouts bound the cost of that optimism).
  double Phi(uint32_t peer, sim::Time now) const;

  /// phi >= threshold, or the consecutive-failure fallback fired. Only
  /// meaningful when a heartbeat stream feeds OnArrival — without one,
  /// silence is workload, not death; use ConsecutiveFailuresExceeded.
  bool IsSuspected(uint32_t peer, sim::Time now) const;

  /// True when the consecutive-failure fallback alone convicts `peer`.
  bool ConsecutiveFailuresExceeded(uint32_t peer) const;

  /// Drops all history for `peer` (e.g. after it was replaced).
  void Forget(uint32_t peer);

  const DetectorOptions& options() const { return options_; }

 private:
  struct PeerHistory {
    /// The last kDetectorWindow intervals as a ring: it fills by appending,
    /// then each sample overwrites the oldest, at `next`. Storage grows
    /// only as samples arrive, so a peer with few heartbeats stays small.
    std::vector<sim::Time> intervals;
    size_t next = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    sim::Time last_arrival = 0;
    bool has_arrival = false;
    int consecutive_failures = 0;
  };

  DetectorOptions options_;
  sim::NodeTable<PeerHistory> peers_;
};

}  // namespace evc::resilience

#endif  // EVC_RESILIENCE_DETECTOR_H_

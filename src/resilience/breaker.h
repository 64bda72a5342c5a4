// Per-peer circuit breaker: closed -> open -> half-open -> closed.
//
// The breaker complements the phi-accrual detector (detector.h): the
// detector ranks peers for *selection* (who should I even try), the breaker
// gates *admission* (stop hammering a peer that keeps failing, then let one
// probe through after a cool-down). Counting consecutive failures keeps it
// deliberately simple — the interesting statistics live in the detector.

#ifndef EVC_RESILIENCE_BREAKER_H_
#define EVC_RESILIENCE_BREAKER_H_

#include <cstdint>

#include "sim/node_table.h"
#include "sim/simulator.h"

namespace evc::resilience {

struct BreakerOptions {
  /// Consecutive failures that trip a closed breaker open.
  int failure_threshold = 5;
  /// Time an open breaker waits before letting a half-open probe through.
  sim::Time open_duration = 2 * sim::kSecond;
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerOptions options = {});

  /// True if a request to `peer` may be issued now. Mutating: an open
  /// breaker whose cool-down elapsed transitions to half-open and grants
  /// exactly one probe slot; further requests are rejected until the probe
  /// resolves via OnSuccess/OnFailure.
  bool AllowRequest(uint32_t peer, sim::Time now);

  void OnSuccess(uint32_t peer);
  void OnFailure(uint32_t peer, sim::Time now);

  /// Non-mutating peek (used by PeerUsable-style selection predicates):
  /// reports what AllowRequest would decide without claiming a probe slot.
  State StateOf(uint32_t peer, sim::Time now) const;

  uint64_t trips() const { return trips_; }
  uint64_t rejects() const { return rejects_; }

  const BreakerOptions& options() const { return options_; }

 private:
  struct PeerBreaker {
    State state = State::kClosed;
    int consecutive_failures = 0;
    sim::Time opened_at = 0;
    bool probe_in_flight = false;
  };

  BreakerOptions options_;
  sim::NodeTable<PeerBreaker> peers_;
  uint64_t trips_ = 0;
  uint64_t rejects_ = 0;
};

}  // namespace evc::resilience

#endif  // EVC_RESILIENCE_BREAKER_H_

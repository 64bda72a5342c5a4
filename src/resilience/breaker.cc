#include "resilience/breaker.h"

#include "common/status.h"

namespace evc::resilience {

CircuitBreaker::CircuitBreaker(BreakerOptions options) : options_(options) {
  EVC_CHECK(options_.failure_threshold >= 1);
  EVC_CHECK(options_.open_duration > 0);
}

bool CircuitBreaker::AllowRequest(uint32_t peer, sim::Time now) {
  PeerBreaker& b = peers_[peer];
  switch (b.state) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - b.opened_at >= options_.open_duration) {
        b.state = State::kHalfOpen;
        b.probe_in_flight = true;  // this caller gets the probe slot
        return true;
      }
      ++rejects_;
      return false;
    case State::kHalfOpen:
      if (!b.probe_in_flight) {
        b.probe_in_flight = true;
        return true;
      }
      ++rejects_;
      return false;
  }
  return true;
}

void CircuitBreaker::OnSuccess(uint32_t peer) {
  PeerBreaker& b = peers_[peer];
  b.state = State::kClosed;
  b.consecutive_failures = 0;
  b.probe_in_flight = false;
}

void CircuitBreaker::OnFailure(uint32_t peer, sim::Time now) {
  PeerBreaker& b = peers_[peer];
  ++b.consecutive_failures;
  switch (b.state) {
    case State::kClosed:
      if (b.consecutive_failures >= options_.failure_threshold) {
        b.state = State::kOpen;
        b.opened_at = now;
        ++trips_;
      }
      break;
    case State::kHalfOpen:
      // Probe failed: back to open, restart the cool-down.
      b.state = State::kOpen;
      b.opened_at = now;
      b.probe_in_flight = false;
      ++trips_;
      break;
    case State::kOpen:
      // A straggling failure from before the trip; stay open.
      break;
  }
}

CircuitBreaker::State CircuitBreaker::StateOf(uint32_t peer,
                                              sim::Time now) const {
  const PeerBreaker& b = peers_.Get(peer);
  if (b.state == State::kOpen && now - b.opened_at >= options_.open_duration) {
    return State::kHalfOpen;
  }
  return b.state;
}

}  // namespace evc::resilience

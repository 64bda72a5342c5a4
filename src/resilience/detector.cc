#include "resilience/detector.h"

#include <algorithm>
#include <cmath>

namespace evc::resilience {

namespace {
/// Floor on the interval standard deviation, so a metronome-regular
/// heartbeat stream does not make phi explode on the first hiccup.
constexpr sim::Time kMinStd = 20 * sim::kMillisecond;
/// Assumed mean interval while fewer than two samples exist.
constexpr sim::Time kFirstIntervalEstimate = 500 * sim::kMillisecond;
}  // namespace

PhiAccrualDetector::PhiAccrualDetector(DetectorOptions options)
    : options_(options) {}

void PhiAccrualDetector::OnArrival(uint32_t peer, sim::Time now) {
  PeerHistory& h = peers_[peer];
  h.consecutive_failures = 0;
  if (h.has_arrival && now >= h.last_arrival) {
    const sim::Time interval = now - h.last_arrival;
    const double x = static_cast<double>(interval);
    h.sum += x;
    h.sum_sq += x * x;
    if (h.intervals.size() < kDetectorWindow) {
      h.intervals.push_back(interval);
    } else {
      const double old = static_cast<double>(h.intervals[h.next]);
      h.sum -= old;
      h.sum_sq -= old * old;
      h.intervals[h.next] = interval;
      h.next = (h.next + 1) % kDetectorWindow;
    }
  }
  h.last_arrival = now;
  h.has_arrival = true;
}

void PhiAccrualDetector::OnAlive(uint32_t peer) {
  peers_[peer].consecutive_failures = 0;
}

void PhiAccrualDetector::OnFailure(uint32_t peer, sim::Time) {
  ++peers_[peer].consecutive_failures;
}

double PhiAccrualDetector::Phi(uint32_t peer, sim::Time now) const {
  const PeerHistory& h = peers_.Get(peer);
  if (!h.has_arrival) return 0.0;

  double mean;
  double std_dev;
  if (h.intervals.size() < 2) {
    mean = static_cast<double>(kFirstIntervalEstimate);
    std_dev = mean / 4.0;
  } else {
    const double n = static_cast<double>(h.intervals.size());
    mean = h.sum / n;
    const double var = std::max(0.0, h.sum_sq / n - mean * mean);
    std_dev = std::sqrt(var);
  }
  std_dev = std::max(std_dev, static_cast<double>(kMinStd));

  const double t = static_cast<double>(std::max<sim::Time>(0, now - h.last_arrival));
  // Logistic approximation to the normal tail (as in Akka's implementation):
  // P(interval > t) ~ e / (1 + e) with e = exp(-y (1.5976 + 0.070566 y^2)).
  const double y = (t - mean) / std_dev;
  const double e = std::exp(-y * (1.5976 + 0.070566 * y * y));
  const double p_later =
      t > mean ? e / (1.0 + e) : 1.0 - 1.0 / (1.0 + e);
  if (p_later <= 0.0) return 40.0;  // beyond double precision: certainly dead
  return -std::log10(p_later);
}

bool PhiAccrualDetector::IsSuspected(uint32_t peer, sim::Time now) const {
  if (ConsecutiveFailuresExceeded(peer)) return true;
  return Phi(peer, now) >= kSuspectThreshold;
}

bool PhiAccrualDetector::ConsecutiveFailuresExceeded(uint32_t peer) const {
  return options_.consecutive_failures_to_suspect > 0 &&
         peers_.Get(peer).consecutive_failures >=
             options_.consecutive_failures_to_suspect;
}

void PhiAccrualDetector::Forget(uint32_t peer) { peers_.Reset(peer); }

}  // namespace evc::resilience

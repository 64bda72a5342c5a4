// Sim-time metrics: label-free counters, gauges, and latency histograms.
//
// One MetricsRegistry per scope (the Simulator owns a global registry plus
// one registry per node, see Metrics). Registration is cheap — a name lookup
// in a std::map returning a stable reference that hot paths cache — and
// iteration order is the name order, so exports are deterministic. Values
// are driven entirely by virtual time and seeded randomness: two same-seed
// runs export byte-identical JSON (pinned by obs_export_test).
//
// Layering: obs sits below sim (sim/simulator.h owns an obs::Metrics), so
// this header must not include anything from sim/. Node ids and times are
// the same plain integers sim uses.

#ifndef EVC_OBS_METRICS_H_
#define EVC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"

namespace evc::obs {

/// Monotonic event count (messages sent, retries, dedup hits, ...).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (pending hints, buffered writes, ...). Merging across
/// nodes sums, which is the right semantic for per-node occupancy levels.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// A flat namespace of counters, gauges, and histograms for one scope.
class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. References are
  /// stable for the registry's lifetime (map nodes never move), so callers
  /// on hot paths should look up once and keep the reference.
  Counter& CounterFor(const std::string& name) { return counters_[name]; }
  Gauge& GaugeFor(const std::string& name) { return gauges_[name]; }
  Histogram& HistogramFor(const std::string& name) { return histograms_[name]; }

  /// Accumulates `other` into this registry: counters and gauges add,
  /// histograms merge bucket-wise. Used to collapse per-node registries
  /// into one cluster-wide view at export time.
  void MergeFrom(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Deterministic (name-ordered) iteration for exporters.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// A counter looked up by name on its first Inc() and cached from then on,
/// for per-event paths that would otherwise build the name and search the
/// registry on every event. Unlike a lookup in a constructor, it leaves the
/// registry (and so every export) without the counter until it first
/// fires. The registry must outlive it.
class LazyCounter {
 public:
  LazyCounter(MetricsRegistry* registry, const char* name)
      : registry_(registry), name_(name) {}

  void Inc(uint64_t delta = 1) {
    if (counter_ == nullptr) counter_ = &registry_->CounterFor(name_);
    counter_->Inc(delta);
  }

 private:
  MetricsRegistry* registry_;
  const char* name_;
  Counter* counter_ = nullptr;
};

/// The simulation-wide metrics hub: one global registry for cluster-level
/// instruments plus a lazily grown registry per node.
class Metrics {
 public:
  MetricsRegistry& global() { return global_; }
  const MetricsRegistry& global() const { return global_; }

  /// Registry for `node`, created on first use.
  MetricsRegistry& node(uint32_t node);
  /// Read-only view; nullptr if the node never recorded anything.
  const MetricsRegistry* node_if(uint32_t node) const;
  /// One past the highest node id that has a registry.
  size_t node_limit() const { return nodes_.size(); }

  /// Global registry plus every node registry merged into one.
  MetricsRegistry Merged() const;

 private:
  MetricsRegistry global_;
  std::vector<std::unique_ptr<MetricsRegistry>> nodes_;
};

}  // namespace evc::obs

#endif  // EVC_OBS_METRICS_H_

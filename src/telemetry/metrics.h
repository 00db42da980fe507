// Metric registry: hierarchical named counters, gauges and histograms.
//
// Components register their observables once (at telemetry attach) under
// dotted names — "host.llc.ddio_occupancy", "ceio.credits.free_pool" — and
// the registry becomes the single reporting surface: the time-series sampler
// (sampler.h) snapshots every gauge periodically, and exporters walk the
// registry instead of each layer hand-rolling its own stats plumbing.
//
// Three metric kinds:
//   * Counter    — monotonic int64 owned by the registry; emit sites hold a
//                  `Counter&` and bump it (push).
//   * Gauge      — a pull callback returning the current value; models expose
//                  existing accessors (occupancy, backlog, utilization)
//                  without storing anything new.
//   * Histogram  — a LatencyHistogram (common/stats.h) for latency series.
//
// Names are unique across all kinds. A collision (same name registered
// twice, any kind) is rejected: `add_gauge` returns false, and
// `counter`/`histogram` return a quarantined instance that is not part of
// the registry — callers keep working, exports stay unambiguous, and the
// collision is logged once at warn level. Name storage is stable for the
// registry's lifetime (a deque), so `const char*` handles to registered
// names may be passed to the trace sink.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace ceio {

/// Monotonic counter owned by the registry; stable address after creation.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class MetricRegistry {
 public:
  using GaugeFn = std::function<double()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Creates (or on collision quarantines) a counter under `name`.
  Counter& counter(const std::string& name);

  /// Registers a pull gauge. Returns false (and logs) on name collision;
  /// the gauge is then not registered.
  bool add_gauge(const std::string& name, GaugeFn fn);

  /// Creates (or on collision quarantines) a latency histogram.
  LatencyHistogram& histogram(const std::string& name);

  // ---- Introspection / export ----
  std::size_t gauge_count() const { return gauges_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }
  /// Collisions rejected so far (for tests and export health checks).
  std::size_t collisions() const { return collisions_; }

  /// Gauge names in sorted (registration-independent) order. The returned
  /// pointers reference registry-owned storage, stable for its lifetime.
  std::vector<const std::string*> gauge_names() const;

  /// Evaluates one gauge by name; returns 0.0 for unknown names.
  double read_gauge(const std::string& name) const;

 private:
  bool claim_name(const std::string& name);

  // std::map keeps export order deterministic and key storage stable.
  std::map<std::string, Counter*> counters_;
  std::map<std::string, GaugeFn> gauges_;
  std::map<std::string, LatencyHistogram*> histograms_;
  // Counter/histogram storage: deque never relocates, so references handed
  // to emit sites stay valid as the registry grows.
  std::deque<Counter> counter_storage_;
  std::deque<LatencyHistogram> histogram_storage_;
  std::size_t collisions_ = 0;
};

}  // namespace ceio

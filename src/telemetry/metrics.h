// Metric registry: hierarchical named pull gauges.
//
// Components register their observables once (at telemetry attach) under
// dotted names — "host.llc.ddio_occupancy", "ceio.credits.free_pool" — and
// the registry becomes the single reporting surface: the time-series sampler
// (sampler.h) snapshots every gauge periodically, and exporters walk the
// registry instead of each layer hand-rolling its own stats plumbing. A
// gauge is a pull callback returning the current value, so models expose
// existing accessors (occupancy, backlog, utilization) without storing
// anything new.
//
// Names are unique. A collision (same name registered twice) is rejected:
// `add_gauge` returns false, the first registration keeps the name, exports
// stay unambiguous, and the collision is logged once at warn level. Name
// storage is stable for the registry's lifetime (std::map nodes), so
// `const char*` handles to registered names may be passed to the trace sink.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ceio {

class MetricRegistry {
 public:
  using GaugeFn = std::function<double()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers a pull gauge. Returns false (and logs) on name collision;
  /// the gauge is then not registered.
  bool add_gauge(const std::string& name, GaugeFn fn);

  // ---- Introspection / export ----
  std::size_t gauge_count() const { return gauges_.size(); }
  /// Collisions rejected so far (for tests and export health checks).
  std::size_t collisions() const { return collisions_; }

  /// Gauge names in sorted (registration-independent) order. The returned
  /// pointers reference registry-owned storage, stable for its lifetime.
  std::vector<const std::string*> gauge_names() const;

  /// Evaluates one gauge by name; returns 0.0 for unknown names.
  double read_gauge(const std::string& name) const;

 private:
  // std::map keeps export order deterministic and key storage stable.
  std::map<std::string, GaugeFn> gauges_;
  std::size_t collisions_ = 0;
};

}  // namespace ceio

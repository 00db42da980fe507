#include "telemetry/metrics.h"

#include "common/logging.h"

namespace ceio {

bool MetricRegistry::claim_name(const std::string& name) {
  if (counters_.count(name) != 0 || gauges_.count(name) != 0 ||
      histograms_.count(name) != 0) {
    ++collisions_;
    CEIO_WARN("metric name collision: '%s' already registered", name.c_str());
    return false;
  }
  return true;
}

Counter& MetricRegistry::counter(const std::string& name) {
  if (!claim_name(name)) {
    // Quarantined: the caller gets a live counter, but it is not exported —
    // the first registration keeps the name.
    counter_storage_.emplace_back();
    return counter_storage_.back();
  }
  counter_storage_.emplace_back();
  counters_[name] = &counter_storage_.back();
  return counter_storage_.back();
}

bool MetricRegistry::add_gauge(const std::string& name, GaugeFn fn) {
  if (!fn || !claim_name(name)) return false;
  gauges_[name] = std::move(fn);
  return true;
}

LatencyHistogram& MetricRegistry::histogram(const std::string& name) {
  if (!claim_name(name)) {
    histogram_storage_.emplace_back();
    return histogram_storage_.back();
  }
  histogram_storage_.emplace_back();
  histograms_[name] = &histogram_storage_.back();
  return histogram_storage_.back();
}

std::vector<const std::string*> MetricRegistry::gauge_names() const {
  std::vector<const std::string*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, fn] : gauges_) out.push_back(&name);
  return out;
}

double MetricRegistry::read_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second();
}

}  // namespace ceio

#include "telemetry/metrics.h"

#include "common/logging.h"

namespace ceio {

bool MetricRegistry::add_gauge(const std::string& name, GaugeFn fn) {
  if (!fn) return false;
  if (gauges_.count(name) != 0) {
    ++collisions_;
    CEIO_WARN("metric name collision: '%s' already registered", name.c_str());
    return false;
  }
  gauges_[name] = std::move(fn);
  return true;
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

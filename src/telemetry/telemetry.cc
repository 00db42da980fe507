#include "telemetry/telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "telemetry/trace_export.h"

namespace ceio {

namespace {

/// Creates `path` and fills it through `body(FILE*)`. stdio errors are
/// sticky, so one ferror() after the body covers every write; fclose()
/// flushes the buffered tail and is checked too.
template <typename Body>
bool write_file(const std::string& path, Body&& body, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  body(f);
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace

Telemetry::Telemetry(EventScheduler& sched, const TelemetryConfig& config)
    : config_(config),
      trace_(config.trace_capacity > 0 ? config.trace_capacity : 1),
      sampler_(sched, metrics_, &trace_),
      paths_(config.path_sample_every, config.path_max_records) {}

void Telemetry::set_enabled(bool on) {
  enabled_ = on;
  if (!on) sampler_.stop();
}

void Telemetry::start_sampling() {
  enabled_ = true;
  if (config_.sample_interval > Nanos{0}) sampler_.start(config_.sample_interval);
}

std::string Telemetry::trace_json() const {
  return ChromeTraceExporter(trace_, &paths_).to_json();
}

bool Telemetry::write_files(const std::string& prefix, std::string* error) const {
  return write_file(
             prefix + ".trace.json",
             [this](std::FILE* f) { ChromeTraceExporter(trace_, &paths_).write(f); }, error) &&
         write_file(
             prefix + ".timeseries.csv", [this](std::FILE* f) { sampler_.write_csv(f); }, error);
}

}  // namespace ceio

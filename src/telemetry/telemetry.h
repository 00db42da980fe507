// Telemetry facade: one object bundling the trace sink, metric registry,
// time-series sampler and path tracer, plus the hook macros model code uses.
//
// Cost contract (DESIGN.md "Telemetry"):
//   * disabled (the default: Testbed::enable_telemetry() never ran, or
//     set_enabled(false)): each CEIO_T_* hook is a null check, plus an
//     enabled() test once attached; nothing is recorded or scheduled.
//   * enabled: trace emits are O(1) allocation-free ring writes; gauges are
//     pull-based (evaluated only when the sampler fires); path tracing
//     touches only every Nth sequence number. Recording never changes
//     simulation results (tests/test_telemetry.cc and tools/check.sh
//     compare recorded runs against unrecorded ones).
//
// The facade never schedules anything until `start_sampling()` runs, which
// is what keeps an attached-but-disabled telemetry object inert.
#pragma once

#include <memory>
#include <string>

#include "sim/event_scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/path_trace.h"
#include "telemetry/trace.h"
#include "telemetry/sampler.h"

namespace ceio {

struct TelemetryConfig {
  /// Trace ring capacity in events (32 B each). The ring is a flight
  /// recorder: on overflow the oldest events are overwritten.
  std::size_t trace_capacity = 1 << 18;
  /// Periodic gauge-snapshot interval (start_sampling()).
  Nanos sample_interval = micros(50);
  /// Path-trace sampling: every Nth segment per flow (0 disables).
  std::uint32_t path_sample_every = 64;
  /// Completed path records retained.
  std::size_t path_max_records = 4096;
};

class Telemetry {
 public:
  explicit Telemetry(EventScheduler& sched, const TelemetryConfig& config = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Master switch consulted by every hook. Disabling stops the sampler.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }
  PathTracer& paths() { return paths_; }
  const PathTracer& paths() const { return paths_; }

  const TelemetryConfig& config() const { return config_; }

  /// Enables telemetry and starts the periodic gauge sampler at the
  /// configured interval. This is the only call that schedules events.
  void start_sampling();

  // ---- Export ----
  /// Chrome trace-event JSON (trace ring + path records).
  std::string trace_json() const;
  /// Writes `prefix`.trace.json (Chrome trace-event JSON) and
  /// `prefix`.timeseries.csv (one column per gauge). Returns false with
  /// `*error` naming the file when one cannot be opened, written or closed.
  bool write_files(const std::string& prefix, std::string* error) const;

 private:
  TelemetryConfig config_;
  bool enabled_ = false;
  TraceSink trace_;
  MetricRegistry metrics_;
  TimeSeriesSampler sampler_;
  PathTracer paths_;
};

// ---- Hook macros -----------------------------------------------------------
//
// `tele` is a `Telemetry*` (usually a member set via set_telemetry); it stays
// null until Testbed::enable_telemetry(), so an unrecorded run pays one null
// check per hook.

#define CEIO_T_SPAN_BEGIN(tele, track, name, now, flow)                       \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled())                               \
      (tele)->trace().span_begin((track), (name), (now), (flow));             \
  } while (false)

#define CEIO_T_SPAN_END(tele, track, name, now, flow)                         \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled())                               \
      (tele)->trace().span_end((track), (name), (now), (flow));               \
  } while (false)

#define CEIO_T_INSTANT(tele, track, name, now, value, flow)                   \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled())                               \
      (tele)->trace().instant((track), (name), (now), (value), (flow));       \
  } while (false)

#define CEIO_T_COUNTER(tele, track, name, now, value)                         \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled())                               \
      (tele)->trace().counter((track), (name), (now), (value));               \
  } while (false)

#define CEIO_T_PATH_HOP(tele, flow, seq, station, now)                        \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled() && (tele)->paths().sampled(seq)) \
      (tele)->paths().hop((flow), (seq), (station), (now));                   \
  } while (false)

#define CEIO_T_PATH_DONE(tele, flow, seq, station, now)                       \
  do {                                                                        \
    if ((tele) != nullptr && (tele)->enabled() && (tele)->paths().sampled(seq)) \
      (tele)->paths().finish((flow), (seq), (station), (now));                \
  } while (false)

}  // namespace ceio

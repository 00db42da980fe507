// Telemetry subsystem tests: trace-sink wraparound, JSON escaping, Chrome
// trace-event schema (checked with an embedded mini JSON parser, including
// against a full Testbed paper-scenario recording), metric-registry name
// collisions, sampler interval math, the sampled path tracer, and recorded
// harness runs (run_experiment with a trace prefix).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/kv_store.h"
#include "harness/experiment.h"
#include "harness/scenario_registry.h"
#include "iopath/testbed.h"
#include "telemetry/metrics.h"
#include "telemetry/path_trace.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace ceio {
namespace {

// ---- Mini JSON parser ------------------------------------------------------
//
// Recursive-descent syntax validator with just enough structure retention to
// schema-check a Chrome trace: it parses the document and invokes a callback
// with the key set of every object inside the "traceEvents" array.

class MiniJson {
 public:
  struct Event {
    std::vector<std::string> keys;
    std::string ph;  // value of the "ph" key when present
  };

  explicit MiniJson(const std::string& text) : s_(text) {}

  /// Parses the whole document; returns false on any syntax error.
  bool parse() {
    skip_ws();
    if (!parse_value(0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  const std::vector<Event>& events() const { return events_; }
  bool saw_trace_events() const { return saw_trace_events_; }

 private:
  bool fail() { return false; }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool parse_value(int depth) {
    if (depth > 64 || pos_ >= s_.size()) return fail();
    const char c = s_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth, /*in_trace_events=*/false);
    if (c == '"') return parse_string(nullptr);
    if (c == 't') return parse_lit("true");
    if (c == 'f') return parse_lit("false");
    if (c == 'n') return parse_lit("null");
    return parse_number();
  }

  bool parse_lit(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return fail();
    }
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_string(std::string* out) {
    if (s_[pos_] != '"') return fail();
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail();  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail();
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return fail();
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail();
        }
        ++pos_;
        continue;
      }
      if (out != nullptr) out->push_back(c);
      ++pos_;
    }
    return fail();  // unterminated
  }

  bool parse_object(int depth, Event* ev = nullptr) {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !parse_string(&key)) return fail();
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail();
      ++pos_;
      skip_ws();
      const bool is_trace_events = depth == 0 && key == "traceEvents";
      if (is_trace_events) {
        saw_trace_events_ = true;
        if (pos_ >= s_.size() || s_[pos_] != '[') return fail();
        if (!parse_array(depth + 1, /*in_trace_events=*/true)) return fail();
      } else if (ev != nullptr && key == "ph") {
        std::string ph;
        if (pos_ >= s_.size() || s_[pos_] != '"' || !parse_string(&ph)) return fail();
        ev->ph = ph;
      } else {
        if (!parse_value(depth + 1)) return fail();
      }
      if (ev != nullptr) ev->keys.push_back(key);
      skip_ws();
      if (pos_ >= s_.size()) return fail();
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail();
    }
  }

  bool parse_array(int depth, bool in_trace_events) {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (in_trace_events) {
        if (pos_ >= s_.size() || s_[pos_] != '{') return fail();
        Event ev;
        if (!parse_object(depth, &ev)) return fail();
        events_.push_back(std::move(ev));
      } else {
        if (!parse_value(depth + 1)) return fail();
      }
      skip_ws();
      if (pos_ >= s_.size()) return fail();
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<Event> events_;
  bool saw_trace_events_ = false;
};

bool has_key(const MiniJson::Event& ev, const char* key) {
  for (const auto& k : ev.keys) {
    if (k == key) return true;
  }
  return false;
}

/// Chrome trace-event schema: a valid document, a traceEvents array, and
/// every event carries ph/pid/tid (+ ts and name for non-metadata phases).
void expect_valid_chrome_trace(const std::string& json, std::size_t min_events) {
  MiniJson parser(json);
  ASSERT_TRUE(parser.parse()) << "trace JSON does not parse";
  EXPECT_TRUE(parser.saw_trace_events());
  EXPECT_GE(parser.events().size(), min_events);
  const std::string phases = "BEiCXM";
  for (const auto& ev : parser.events()) {
    ASSERT_TRUE(has_key(ev, "ph"));
    EXPECT_EQ(ev.ph.size(), 1u);
    EXPECT_NE(phases.find(ev.ph), std::string::npos) << "unknown phase " << ev.ph;
    EXPECT_TRUE(has_key(ev, "pid"));
    EXPECT_TRUE(has_key(ev, "tid"));
    EXPECT_TRUE(has_key(ev, "name"));
    if (ev.ph != "M") {
      EXPECT_TRUE(has_key(ev, "ts")) << "non-metadata event without timestamp";
    }
    if (ev.ph == "X") {
      EXPECT_TRUE(has_key(ev, "dur")) << "complete event without duration";
    }
  }
}

/// "X" slices in a parsed trace: one per hop-to-hop leg of a completed
/// packet path.
std::size_t path_legs(const std::string& json) {
  MiniJson parser(json);
  if (!parser.parse()) return 0;
  std::size_t legs = 0;
  for (const auto& ev : parser.events()) legs += ev.ph == "X" ? 1 : 0;
  return legs;
}

// ---- Trace sink ------------------------------------------------------------

TEST(TraceSink, WraparoundKeepsNewestEvents) {
  TraceSink sink(8);
  for (int i = 0; i < 20; ++i) {
    sink.instant(TraceTrack::kLlc, "ev", Nanos{i}, static_cast<double>(i));
  }
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.capacity(), 8u);
  EXPECT_EQ(sink.total_emitted(), 20u);
  EXPECT_EQ(sink.overwritten(), 12u);
  // The flight recorder keeps the 8 newest events, oldest-first.
  std::vector<std::int64_t> ts;
  sink.for_each([&ts](const TraceEvent& ev) { ts.push_back(ev.ts.count()); });
  ASSERT_EQ(ts.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ts[static_cast<std::size_t>(i)], 12 + i);
}

TEST(TraceSink, NoOverwriteBeforeCapacity) {
  TraceSink sink(16);
  for (int i = 0; i < 10; ++i) sink.counter(TraceTrack::kDram, "c", Nanos{i}, 1.0);
  EXPECT_EQ(sink.size(), 10u);
  EXPECT_EQ(sink.overwritten(), 0u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_emitted(), 0u);
}

// ---- Exporter escaping -----------------------------------------------------

TEST(TraceExport, EscapeJson) {
  EXPECT_EQ(escape_json("plain"), "plain");
  EXPECT_EQ(escape_json("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_json("a\nb"), "a\\nb");
  EXPECT_EQ(escape_json("\x01"), "\\u0001");
  EXPECT_EQ(escape_json(""), "");
}

TEST(TraceExport, HostileNamesSurviveRoundTrip) {
  TraceSink sink(16);
  sink.instant(TraceTrack::kRmt, "quote\"backslash\\newline\ntab\t", Nanos{10}, 1.0, 7);
  // \002 (octal) — a hex escape would swallow the following 'c'.
  sink.span_begin(TraceTrack::kCpuCore, "ctrl\002char", Nanos{20}, 7);
  sink.span_end(TraceTrack::kCpuCore, "ctrl\002char", Nanos{30}, 7);
  const std::string json = ChromeTraceExporter(sink).to_json();
  // Raw specials must not leak into the document...
  EXPECT_EQ(json.find("newline\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  // ...and the result must still be parseable with the events intact.
  expect_valid_chrome_trace(json, 3);
}

TEST(TraceExport, AllEventTypesAndPathsSerialize) {
  TraceSink sink(64);
  sink.span_begin(TraceTrack::kDmaEngine, "write", Nanos{100}, 1);
  sink.span_end(TraceTrack::kDmaEngine, "write", Nanos{250}, 1);
  sink.instant(TraceTrack::kCreditController, "switch_to_slow", Nanos{300}, 4.0, 1);
  sink.counter(TraceTrack::kLlc, "occupancy", Nanos{400}, 512.0);

  PathTracer paths(/*every_n=*/1, /*max_records=*/8);
  paths.hop(1, 0, PathHop::kNicArrival, Nanos{100});
  paths.hop(1, 0, PathHop::kDmaIssue, Nanos{180});
  paths.hop(1, 0, PathHop::kHostLanded, Nanos{240});
  paths.finish(1, 0, PathHop::kProcessed, Nanos{400});

  const std::string json = ChromeTraceExporter(sink, &paths).to_json();
  expect_valid_chrome_trace(json, 5);
  // Hop-to-hop legs render as complete slices with per-leg names.
  EXPECT_NE(json.find("\"X\""), std::string::npos);
}

// ---- Metric registry -------------------------------------------------------

TEST(MetricRegistry, GaugeNameCollisionRejected) {
  MetricRegistry reg;
  EXPECT_TRUE(reg.add_gauge("a.b.c", []() { return 1.0; }));
  EXPECT_FALSE(reg.add_gauge("a.b.c", []() { return 2.0; }));
  EXPECT_EQ(reg.gauge_count(), 1u);
  EXPECT_EQ(reg.collisions(), 1u);
  // The first registration wins.
  EXPECT_DOUBLE_EQ(reg.read_gauge("a.b.c"), 1.0);
}

TEST(MetricRegistry, GaugeNamesSortedAndStable) {
  MetricRegistry reg;
  reg.add_gauge("z.last", []() { return 0.0; });
  reg.add_gauge("a.first", []() { return 0.0; });
  reg.add_gauge("m.middle", []() { return 0.0; });
  const auto names = reg.gauge_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(*names[0], "a.first");
  EXPECT_EQ(*names[1], "m.middle");
  EXPECT_EQ(*names[2], "z.last");
}

// ---- Sampler ---------------------------------------------------------------

TEST(Sampler, ExpectedSamplesMath) {
  using S = TimeSeriesSampler;
  EXPECT_EQ(S::expected_samples(millis(1.0), micros(50)), 20u);
  EXPECT_EQ(S::expected_samples(micros(100), micros(50)), 2u);
  // A snapshot fires at every whole multiple of the interval; the partial
  // tail interval contributes nothing.
  EXPECT_EQ(S::expected_samples(micros(149), micros(50)), 2u);
  EXPECT_EQ(S::expected_samples(micros(49), micros(50)), 0u);
  EXPECT_EQ(S::expected_samples(Nanos{0}, micros(50)), 0u);
  EXPECT_EQ(S::expected_samples(millis(1.0), Nanos{0}), 0u);
  EXPECT_EQ(S::expected_samples(millis(1.0), Nanos{-5}), 0u);
}

TEST(Sampler, PeriodicRowsMatchIntervalMath) {
  EventScheduler sched;
  MetricRegistry reg;
  double x = 0.0;
  reg.add_gauge("test.x", [&x]() { return x; });
  TimeSeriesSampler sampler(sched, reg);
  sampler.start(micros(50));
  x = 42.0;
  sched.run_until(millis(1.0));
  EXPECT_EQ(sampler.rows(),
            TimeSeriesSampler::expected_samples(millis(1.0), micros(50)));
  ASSERT_EQ(sampler.columns().size(), 1u);
  EXPECT_EQ(sampler.columns()[0], "test.x");
  EXPECT_EQ(sampler.time_at(0), micros(50));
  EXPECT_DOUBLE_EQ(sampler.value_at(0, 0), 42.0);
  // Stop cancels the pending snapshot: no more rows accrue.
  sampler.stop();
  const std::size_t rows = sampler.rows();
  sched.run_until(millis(2.0));
  EXPECT_EQ(sampler.rows(), rows);
}

TEST(Sampler, MirrorsSnapshotsIntoTrace) {
  EventScheduler sched;
  MetricRegistry reg;
  reg.add_gauge("test.y", []() { return 7.0; });
  TraceSink sink(64);
  TimeSeriesSampler sampler(sched, reg, &sink);
  sampler.start(micros(10));
  sched.run_until(micros(35));
  EXPECT_EQ(sampler.rows(), 3u);
  EXPECT_EQ(sink.total_emitted(), 3u);  // one counter event per gauge per row
}

// ---- Path tracer -----------------------------------------------------------

TEST(PathTracer, SamplesEveryNth) {
  PathTracer tracer(/*every_n=*/4, /*max_records=*/16);
  EXPECT_TRUE(tracer.sampled(0));
  EXPECT_FALSE(tracer.sampled(1));
  EXPECT_TRUE(tracer.sampled(4));
  // Unsampled sequences are ignored even on a direct call.
  tracer.hop(1, 3, PathHop::kNicArrival, Nanos{10});
  EXPECT_EQ(tracer.open_count(), 0u);
  PathTracer off(/*every_n=*/0);
  EXPECT_FALSE(off.sampled(0));
}

TEST(PathTracer, RecordsJourneyAndSlowPathFlag) {
  PathTracer tracer(1, 16);
  tracer.hop(3, 0, PathHop::kNicArrival, Nanos{100});
  tracer.hop(3, 0, PathHop::kNicBuffered, Nanos{150});
  tracer.hop(3, 0, PathHop::kDmaIssue, Nanos{200});
  EXPECT_EQ(tracer.open_count(), 1u);
  // A retried hop keeps the first timestamp.
  tracer.hop(3, 0, PathHop::kDmaIssue, Nanos{500});
  tracer.finish(3, 0, PathHop::kHostLanded, Nanos{700});
  EXPECT_EQ(tracer.open_count(), 0u);
  ASSERT_EQ(tracer.records().size(), 1u);
  const PathRecord& rec = tracer.records()[0];
  EXPECT_EQ(rec.flow, 3u);
  EXPECT_TRUE(rec.slow_path);
  EXPECT_EQ(rec.at(PathHop::kDmaIssue), Nanos{200});
  EXPECT_EQ(rec.begin_ts(), Nanos{100});
  EXPECT_EQ(rec.end_ts(), Nanos{700});
  EXPECT_FALSE(rec.has(PathHop::kCpuStart));
}

TEST(PathTracer, BoundsCompletedRecords) {
  PathTracer tracer(1, /*max_records=*/2);
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    tracer.hop(1, seq, PathHop::kNicArrival, Nanos{10});
    tracer.finish(1, seq, PathHop::kProcessed, Nanos{20});
  }
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  tracer.clear();
  EXPECT_EQ(tracer.records().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---- End-to-end: Testbed paper scenario ------------------------------------

TEST(TelemetryEndToEnd, PaperScenarioProducesValidTraceAndCsv) {
  TestbedConfig config;
  config.system = SystemKind::kCeio;
  config.telemetry.sample_interval = micros(50);
  Testbed bed(config);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 4; ++id) {
    FlowConfig fc;
    fc.id = id;
    fc.kind = FlowKind::kCpuInvolved;
    fc.packet_size = Bytes{512};
    fc.offered_rate = gbps(25.0);
    bed.add_flow(fc, kv);
  }
  Telemetry& tele = bed.enable_telemetry();
  tele.start_sampling();
  bed.run_for(millis(1.0));

  // Gauges from every layer made it into the registry under dotted names.
  EXPECT_GT(tele.metrics().gauge_count(), 20u);
  EXPECT_EQ(tele.metrics().collisions(), 0u);
  EXPECT_GT(tele.metrics().read_gauge("nic.rx.packets"), 0.0);

  // The exported trace is schema-valid Chrome trace-event JSON.
  EXPECT_GT(tele.trace().size(), 0u);
  expect_valid_chrome_trace(tele.trace_json(), tele.trace().size());

  // The time series covers the run at the configured interval.
  const auto& sampler = tele.sampler();
  EXPECT_EQ(sampler.rows(),
            TimeSeriesSampler::expected_samples(millis(1.0), micros(50)));
  const std::string csv = sampler.to_csv();
  EXPECT_EQ(csv.rfind("t_ns,", 0), 0u);  // header first
  // One header plus one line per row.
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, sampler.rows() + 1);

  // Per-packet paths complete on the fast path.
  EXPECT_GT(tele.paths().records().size(), 0u);

  // Disabling stops recording entirely.
  tele.set_enabled(false);
  const auto emitted = tele.trace().total_emitted();
  bed.run_for(millis(0.2));
  EXPECT_EQ(tele.trace().total_emitted(), emitted);
}

// ---- End-to-end: recorded harness runs -------------------------------------

/// Every field of a RunResult, doubles in hex: equal text means bit-equal.
std::string fingerprint(const harness::RunResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& f : r.flows) {
    out << "flow " << f.id << ' ' << static_cast<int>(f.kind) << ' ' << f.mpps << ' ' << f.gbps
        << ' ' << f.message_gbps << ' ' << f.p50.count() << ' ' << f.p99.count() << ' '
        << f.p999.count() << ' ' << f.messages << ' ' << f.drops << '\n';
  }
  out << "agg " << r.aggregate_mpps << ' ' << r.aggregate_gbps << ' '
      << r.aggregate_message_gbps << ' ' << r.llc_miss_rate << ' ' << r.premature_evictions
      << ' ' << r.dram_utilization << '\n';
  out << "ceio " << r.has_ceio << ' ' << r.ceio_total_credits << ' ' << r.ceio_to_slow << ' '
      << r.ceio_to_fast << ' ' << r.ceio_cca_triggers << ' ' << r.ceio_reclaims << '\n';
  for (const auto& t : r.tenants) {
    out << "tenant " << t.name << ' ' << t.app << ' ' << t.flows << ' ' << t.ddio_ways << ' '
        << t.mpps << ' ' << t.gbps << ' ' << t.message_gbps << ' ' << t.p50.count() << ' '
        << t.p99.count() << ' ' << t.p999.count() << ' ' << t.messages << ' ' << t.drops << ' '
        << t.ddio_occupancy << ' ' << t.ddio_capacity << ' ' << t.premature_evictions << ' '
        << t.budget_bypasses << ' ' << t.ceio_total_credits << '\n';
  }
  out << "ways " << r.way_repartitions << '\n';
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

harness::ExperimentSpec registered(const char* scenario) {
  const harness::Scenario* s = harness::ScenarioRegistry::instance().find(scenario);
  if (s == nullptr) throw std::invalid_argument(std::string("unknown scenario ") + scenario);
  return s->spec;
}

struct TracedCase {
  const char* label;
  const char* scenario;
  SystemKind system;
  const char* column;  // a CSV column the scenario must record
};

// Keeps the discovered test names stable (gtest would otherwise print the
// struct's raw bytes, pointers included).
void PrintTo(const TracedCase& c, std::ostream* os) { *os << c.label; }

class TracedExperiment : public ::testing::TestWithParam<TracedCase> {};

// Recording the measure window never changes the result, and both files
// cover it: a schema-valid trace with completed packet paths, and one CSV
// row per sample interval.
TEST_P(TracedExperiment, RecordingLeavesResultBitIdentical) {
  const TracedCase& c = GetParam();
  harness::ExperimentSpec spec = registered(c.scenario);
  spec.testbed.system = c.system;
  const std::string prefix = ::testing::TempDir() + "ceio_traced_" + c.label;

  const harness::RunResult plain = harness::run_experiment(spec);
  const harness::RunResult traced = harness::run_experiment(spec, prefix);
  EXPECT_EQ(fingerprint(traced), fingerprint(plain));

  const std::string json = read_file(prefix + ".trace.json");
  expect_valid_chrome_trace(json, 1);
  EXPECT_GT(path_legs(json), 0u) << "no completed packet path";

  const std::string csv = read_file(prefix + ".timeseries.csv");
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find(std::string(",") + c.column), std::string::npos) << header;
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n' ? 1 : 0;
  ASSERT_GE(lines, 1u);
  EXPECT_EQ(lines - 1, TimeSeriesSampler::expected_samples(
                           spec.measure, spec.testbed.telemetry.sample_interval));

  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".timeseries.csv").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TracedExperiment,
    ::testing::Values(
        TracedCase{"kv_legacy", "ceio-kv-short", SystemKind::kLegacy, "host.llc.miss_rate"},
        TracedCase{"kv_hostcc", "ceio-kv-short", SystemKind::kHostcc, "host.llc.miss_rate"},
        TracedCase{"kv_shring", "ceio-kv-short", SystemKind::kShring, "host.llc.miss_rate"},
        TracedCase{"kv_ceio", "ceio-kv-short", SystemKind::kCeio, "host.llc.miss_rate"},
        TracedCase{"multitenant", "multitenant-short", SystemKind::kCeio,
                   "tenant.lc.ddio_occupancy"},
        TracedCase{"governed", "governed-kv-short", SystemKind::kCeio, "policy.tier"}),
    [](const auto& tpi) { return std::string(tpi.param.label); });

TEST(TracedExperimentErrors, ShardedSpecIsRefusedBeforeRunning) {
  harness::ExperimentSpec spec = registered("ceio-kv-short");
  spec.testbed.sim.domains = 4;
  const std::string prefix = ::testing::TempDir() + "ceio_traced_sharded";
  EXPECT_THROW(harness::run_experiment(spec, prefix), std::invalid_argument);
  EXPECT_FALSE(std::ifstream(prefix + ".trace.json").good());
}

TEST(TracedExperimentErrors, UnwritablePrefixReportsTheFile) {
  harness::ExperimentSpec spec = registered("ceio-kv-short");
  spec.warmup = micros(100);
  spec.measure = micros(100);
  const std::string prefix = ::testing::TempDir() + "ceio-no-such-dir/run";
  try {
    harness::run_experiment(spec, prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(prefix + ".trace.json"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ceio

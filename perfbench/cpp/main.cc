// ceio_perfbench: host cost of the CEIO simulator, end to end and per layer.
//
//   ceio_perfbench run --workload W --seed N --seconds S --trace 0|1 --out DIR
//   ceio_perfbench digest --workload W --seed N   (report digest of one run)
//   ceio_perfbench metrics                        (catalogue: name unit layer)
//   ceio_perfbench selftest
//
// `run` makes kRounds whole canonical runs of the workload (fresh Testbed
// each time; S host seconds only cap the count), and prints one JSON object
// as its last stdout line: every run's raw values and report digest, plus
// the metrics. How the runs' host times become one value is in
// host_values().
// With --trace 1 each round adds a traced run (spans + counter snapshots
// around every call into a layer) and, for a workload with a sharded
// variant, that variant at its shard count and at one shard; then it times
// each layer's public
// operations in isolation at the sizes the run reached, writes a Chrome
// trace-event file and a per-layer table into DIR, and reports the per-layer
// metrics instead of the end-to-end ones. run.py builds this program,
// checks the digests against references and prints the benchmark's result.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/config_ops.h"
#include "layer_costs.h"
#include "workload.h"

namespace perfbench {
namespace {

using ceio::Nanos;
namespace harness = ceio::harness;

// The measure window is advanced in this many fixed simulated slices, so
// ten slices lie beyond slowdown_p90.
constexpr int kSlices = 100;
// Measured rounds per invocation. The count is fixed, not set by how fast
// the code under test is, so a faster change does not get a larger sample.
// The workloads' windows are sized so that kRounds runs fit well inside a
// 30 s invocation even when the host runs slow.
constexpr int kRounds = 40;

// ---- host clocks and statistics ---------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process (every thread).
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in KiB (0 if absent).
std::int64_t proc_status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::atoll(line.c_str() + n);
  }
  return 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---- metric catalogue ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* kind;   // "host" (noisy host time) or "sim" (deterministic)
  const char* moves;  // the end-to-end metric / workload it should move
};

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s", "host", "setup + warmup + measure + collect of one run"},
      {"setup_s", "s", "host", "validated spec -> first simulated event"},
      {"cpu_s", "s", "host", "process CPU (all threads) over wall_s"},
      {"sim_pkts_per_s", "1/s", "host", "delivered packets / host s of the measure window"},
      {"slowdown_p50", "s/s", "host", "host s per simulated s, median measure slice"},
      {"slowdown_p90", "s/s", "host", "host s per simulated s, p90 measure slice"},
      {"peak_rss_mb", "MiB", "host", "VmHWM of the benchmark process"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count", "sim", "events executed in the measure window"},
      {"sim.pending_max", "count", "sim", "largest per-domain queue at a span boundary"},
      {"sim.host_ns_per_event", "ns", "host", "sim_pkts_per_s on kv16"},
      {"sim.sched_wheel_ns_per_op", "ns", "host", "sim_pkts_per_s on kv16"},
      {"sim.sched_heap_ns_per_op", "ns", "host", "slowdown_p50 on echo4k-poisson"},
      {"sim.sched_cancel_ns_per_op", "ns", "host", "slowdown_p50 (timer re-arms)"},
      {"host.llc.ddio_writes", "count", "sim", ""},
      {"host.llc.cpu_hits", "count", "sim", ""},
      {"host.llc.cpu_misses", "count", "sim", ""},
      {"host.llc.hit_ratio", "ratio", "sim", ""},
      {"host.llc.premature_evictions", "count", "sim", ""},
      {"host.llc.writebacks", "count", "sim", ""},
      {"host.llc.hit_ns_per_op", "ns", "host", "sim_pkts_per_s on kv16"},
      {"host.llc.miss_ns_per_op", "ns", "host", "wall_s on tenants-reactive (not kv16)"},
      {"host.llc.premature_ns_per_op", "ns", "host", "wall_s on tenants-reactive (not kv16)"},
      {"host.dram.requests", "count", "sim", ""},
      {"host.mc.iio_stalls", "count", "sim", ""},
      {"host.iio.rejects", "count", "sim", ""},
      {"host.cpu.packets", "count", "sim", ""},
      {"host.cpu.busy_frac", "ratio", "sim", ""},
      {"host.cpu.mem_stall_frac", "ratio", "sim", ""},
      {"pcie.dma.writes", "count", "sim", ""},
      {"pcie.dma.reads", "count", "sim", "slow-path drains: echo4k-poisson, tenants"},
      {"pcie.dma.read_queue_peak", "count", "sim", ""},
      {"pcie.up_mib", "MiB", "sim", ""},
      {"pcie.down_mib", "MiB", "sim", ""},
      {"nic.rx_packets", "count", "sim", ""},
      {"nic.mem.writes", "count", "sim", ""},
      {"nic.mem.reads", "count", "sim", ""},
      {"nic.mem.peak_kib", "KiB", "sim", ""},
      {"nic.mem.alloc_failures", "count", "sim", ""},
      {"nic.rmt.steer_ns_per_op", "ns", "host", "slowdown_p50 on echo4k-poisson"},
      {"net.link.packets", "count", "sim", ""},
      {"net.link.drops", "count", "sim", ""},
      {"net.link.ecn_marks", "count", "sim", ""},
      {"net.src.sent", "count", "sim", ""},
      {"net.src.delivered", "count", "sim", ""},
      {"net.src.dropped", "count", "sim", ""},
      {"ceio.to_slow", "count", "sim", ""},
      {"ceio.to_fast", "count", "sim", ""},
      {"ceio.reclaims", "count", "sim", ""},
      {"ceio.reactivations", "count", "sim", ""},
      {"ceio.cca_triggers", "count", "sim", ""},
      {"ceio.elastic.buffered", "count", "sim", "packets steered to the slow path"},
      {"ceio.elastic.dropped", "count", "sim", "on-NIC memory allocation failures"},
      {"ceio.fast_path_ratio", "ratio", "sim", "fast-path packets / all steered packets"},
      {"ceio.credit_ns_per_op", "ns", "host", "slowdown_p90 on echo4k-poisson"},
      {"ceio.alg1_ns_per_op", "ns", "host", "slowdown_p90 on echo4k-poisson"},
      {"ceio.swring_ns_per_op", "ns", "host", "sim_pkts_per_s on kv16"},
      {"apps.kv.ops", "count", "sim", ""},
      {"apps.echo.echoed", "count", "sim", ""},
      {"apps.linefs.chunks", "count", "sim", ""},
      {"apps.thrasher.processed", "count", "sim", ""},
      {"policy.governor.changes", "count", "sim", "kv16"},
      {"policy.way.ticks", "count", "sim", "tenants-reactive"},
      {"policy.way.repartitions", "count", "sim", "tenants-reactive"},
      {"tenant.lc.mpps", "Mpps", "sim", "tenants-reactive"},
      {"tenant.lc.p99_us", "us", "sim", "tenants-reactive"},
      {"tenant.bw.message_gbps", "Gbps", "sim", "tenants-reactive"},
      {"tenant.ant.premature", "count", "sim", "tenants-reactive"},
      {"shard.epochs", "count", "sim", "kv16's sharded variant"},
      {"shard.lookahead_ns", "ns", "sim", "kv16's sharded variant"},
      {"shard.events_per_epoch", "count", "sim", "kv16's sharded variant"},
      {"shard.mailbox_spills", "count", "sim", "kv16's sharded variant"},
      {"shard.imbalance", "ratio", "sim", "max / mean per-domain events"},
      {"shard.host_us_per_epoch", "us", "host", "wall and CPU of the sharded variant"},
      {"shard.barrier_ns_per_epoch", "ns", "host", "wall and CPU of the sharded variant"},
      {"shard.speedup_vs_1", "ratio", "host", "sharded variant: wall at 1 shard / at N"},
      {"iopath.ctor_s", "s", "host", "setup_s on echo4k-poisson"},
      {"iopath.make_app_s", "s", "host", "setup_s"},
      {"iopath.add_flows_s", "s", "host", "setup_s on echo4k-poisson"},
      {"iopath.reset_s", "s", "host", "wall_s"},
      {"iopath.collect_s", "s", "host", "wall_s on echo4k-poisson"},
      {"iopath.rss_kib_per_flow", "KiB", "host", "peak_rss_mb on echo4k-poisson"},
      {"config.validate_s", "s", "host", "setup_s"},
      {"common.flow_table_dense_ns_per_op", "ns", "host", "slowdown_p50 on echo4k-poisson"},
      {"common.flow_table_sparse_ns_per_op", "ns", "host", "slowdown_p50 on echo4k-poisson"},
      {"trace.overhead_frac", "ratio", "host", "traced wall_s / untraced wall_s - 1"},
      {"estimate.sim_frac", "ratio", "host", "events x wheel cost (heap tier not counted)"},
      {"estimate.llc_frac", "ratio", "host", "estimated share of measure-window CPU"},
      {"estimate.flow_table_frac", "ratio", "host", "estimated share of measure-window CPU"},
      {"estimate.rmt_frac", "ratio", "host", "estimated share of measure-window CPU"},
      {"estimate.ceio_frac", "ratio", "host", "estimated share of measure-window CPU"},
      {"estimate.barrier_frac", "ratio", "host", "share of the sharded variant's window CPU"},
      {"estimate.unattributed_frac", "ratio", "host", "1 - the estimated shares above"},
  };
  return defs;
}

// ---- JSON output ----------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Comma-joined JSON values.
std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- spans ---------------------------------------------------------------------

/// In-memory span and counter recorder, written once as Chrome trace-event
/// JSON (loads in Perfetto and chrome://tracing).
class Tracer {
 public:
  explicit Tracer(double origin) : origin_(origin) {}

  void span(const std::string& name, double t0, double t1, int rep) {
    events_.push_back("{\"name\":" + jstr(name) + ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" +
                      jnum(us(t0)) + ",\"dur\":" + jnum((t1 - t0) * 1e6) +
                      ",\"pid\":1,\"tid\":1,\"args\":{\"rep\":" + std::to_string(rep) + "}}");
  }

  void counters(double t, const Counters& c) {
    const std::pair<const char*, std::int64_t> series[] = {
        {"sim.events", c.sim_events},
        {"sim.pending", c.sim_pending_max},
        {"net.src.delivered", c.src_delivered},
        {"host.llc.cpu_misses", c.llc_cpu_misses},
        {"host.llc.premature_evictions", c.llc_premature},
        {"pcie.dma.reads", c.dma_reads},
        {"ceio.elastic.buffered", c.path_slow},
        {"shard.epochs", c.shard_epochs},
    };
    for (const auto& [name, value] : series) {
      events_.push_back(std::string("{\"name\":\"") + name + "\",\"ph\":\"C\",\"ts\":" +
                        jnum(us(t)) + ",\"pid\":1,\"args\":{\"value\":" +
                        std::to_string(value) + "}}");
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  double us(double t) const { return (t - origin_) * 1e6; }
  double origin_;
  std::vector<std::string> events_;
};

// ---- one canonical run ---------------------------------------------------------

// kWarmup: the process's first run, which pays heap growth and cold caches;
// it is checked like every run but left out of the metrics. kSharded and
// kShards1: the workload's sharded variant at its shard count and at one
// shard (traced mode only).
enum class RepKind { kWarmup, kUntraced, kTraced, kSharded, kShards1 };

const char* to_string(RepKind k) {
  switch (k) {
    case RepKind::kWarmup: return "warmup";
    case RepKind::kUntraced: return "untraced";
    case RepKind::kTraced: return "traced";
    case RepKind::kSharded: return "sharded";
    case RepKind::kShards1: return "shards1";
  }
  return "?";
}

/// One timed call into the program: host wall and process-CPU seconds, and
/// the simulated seconds it advanced when it is a measure slice.
struct Step {
  const char* name = "";
  double wall = 0, cpu = 0, sim_s = 0;
};

struct Rep {
  RepKind kind = RepKind::kUntraced;
  bool ok = false;
  std::string error;
  std::string digest;
  double validate_s = 0;
  // construct, make_app, add_flows, warmup, reset, slice x N, collect.
  std::vector<Step> steps;
  double wall_s = 0, cpu_s = 0;  // the whole run, bookkeeping between steps included
  double window_pkts = 0;  // packets delivered in the measure window
  std::int64_t rss_delta_kib = 0;  // VmRSS growth over construct + flows
  std::int64_t credits = 0;
  // Traced runs only: counters after reset and at the end of the window,
  // the largest queue seen, and the tenant rows of the report.
  Counters at_reset, at_end;
  std::int64_t pending_max = 0;
  std::vector<ceio::tenant::TenantReport> tenants;
};

/// Packet conservation per flow source over the whole run (warmup tallies
/// are added back because reset_measurement restarts them).
void check_conservation(const std::vector<SourceTally>& warm,
                        const std::vector<SourceTally>& end) {
  for (std::size_t i = 0; i < end.size(); ++i) {
    const std::int64_t sent = warm[i].sent + end[i].sent;
    const std::int64_t accounted =
        warm[i].delivered + end[i].delivered + warm[i].dropped + end[i].dropped;
    if (sent < accounted) {
      throw std::runtime_error("flow " + std::to_string(i + 1) + " accounts for " +
                               std::to_string(accounted) + " packets but sent " +
                               std::to_string(sent));
    }
  }
}

Rep run_once(const harness::ExperimentSpec& spec, RepKind kind, Tracer* tracer,
             int rep_index) {
  Rep r;
  r.kind = kind;
  try {
    const double v0 = wall_now();
    std::vector<std::string> errors;
    if (!ceio::config::validate(spec, &errors)) {
      throw std::invalid_argument("invalid spec: " + errors.front());
    }
    r.validate_s = wall_now() - v0;
    if (tracer) tracer->span("validate", v0, v0 + r.validate_s, rep_index);

    Run run(spec);
    const std::int64_t rss0 = proc_status_kib("VmRSS:");
    const double w0 = wall_now();
    const double c0 = cpu_now();
    const auto step = [&](const char* name, auto&& fn, double sim_s = 0.0) {
      const double a = wall_now();
      const double ca = cpu_now();
      fn();
      const double b = wall_now();
      r.steps.push_back({name, b - a, cpu_now() - ca, sim_s});
      if (tracer) {
        tracer->span(name, a, b, rep_index);
        const Counters c = run.counters();
        r.pending_max = std::max(r.pending_max, c.sim_pending_max);
        tracer->counters(b, c);
      }
    };
    step("construct", [&] { run.construct(); });
    step("make_app", [&] { run.make_app(); });
    step("add_flows", [&] { run.add_flows(); });
    r.rss_delta_kib = proc_status_kib("VmRSS:") - rss0;
    r.credits = run.ceio_total_credits();

    step("warmup", [&] { run.run_until(spec.warmup); });
    const std::vector<SourceTally> warm = run.source_tallies();
    step("reset", [&] { run.reset_measurement(); });
    if (tracer) r.at_reset = run.counters();

    for (int k = 1; k <= kSlices; ++k) {
      const Nanos from = spec.warmup + Nanos{spec.measure.count() * (k - 1) / kSlices};
      const Nanos to = spec.warmup + Nanos{spec.measure.count() * k / kSlices};
      step("slice", [&] { run.run_until(to); }, static_cast<double>((to - from).count()) * 1e-9);
    }
    if (tracer) r.at_end = run.counters();

    harness::RunResult result;
    step("collect", [&] { result = run.collect(); });
    r.wall_s = wall_now() - w0;
    r.cpu_s = cpu_now() - c0;
    if (tracer) tracer->span("run", w0, w0 + r.wall_s, rep_index);

    check_conservation(warm, run.source_tallies());
    if (!run.dma_ledger_ok()) throw std::runtime_error("DMA completed more than it issued");
    const double window_us = static_cast<double>(spec.measure.count()) / 1e3;
    r.window_pkts = result.aggregate_mpps * window_us;
    r.digest = digest(serialize(result));
    r.tenants = result.tenants;
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

// ---- metrics -------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

/// Each step's least wall and CPU time over the runs.
std::vector<Step> least_steps(const std::vector<const Rep*>& reps) {
  if (reps.empty()) return {};
  std::vector<Step> best = reps.front()->steps;
  for (const Rep* r : reps) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i].wall = std::min(best[i].wall, r->steps[i].wall);
      best[i].cpu = std::min(best[i].cpu, r->steps[i].cpu);
    }
  }
  return best;
}

/// Sum of `f` over the steps named `name` (over all steps when null).
double total(const std::vector<Step>& steps, double Step::*f, const char* name = nullptr) {
  double sum = 0.0;
  for (const Step& st : steps) {
    if (name == nullptr || std::strcmp(st.name, name) == 0) sum += st.*f;
  }
  return sum;
}

/// Host seconds per simulated second of each measure slice.
std::vector<double> slowdowns(const std::vector<Step>& steps) {
  std::vector<double> out;
  for (const Step& st : steps) {
    if (st.sim_s > 0) out.push_back(st.wall / st.sim_s);
  }
  return out;
}

std::vector<const Rep*> select(const std::vector<Rep>& reps, RepKind kind) {
  std::vector<const Rep*> out;
  for (const Rep& r : reps) {
    if (r.ok && r.kind == kind) out.push_back(&r);
  }
  return out;
}

/// Host-time values of one run's timed steps; `window_pkts` is what its
/// measure window delivered.
MetricMap step_values(const std::vector<Step>& steps, double window_pkts) {
  MetricMap m;
  const std::vector<double> slices = slowdowns(steps);
  m["wall_s"] = total(steps, &Step::wall);
  m["cpu_s"] = total(steps, &Step::cpu);
  m["measure_s"] = total(steps, &Step::wall, "slice");
  m["measure_cpu_s"] = total(steps, &Step::cpu, "slice");
  for (const char* name : {"construct", "make_app", "add_flows", "reset", "collect"}) {
    m[std::string(name) + "_s"] = total(steps, &Step::wall, name);
  }
  m["setup_s"] = m["construct_s"] + m["make_app_s"] + m["add_flows_s"];
  m["sim_pkts_per_s"] = ratio(window_pkts, m["measure_s"]);
  m["slowdown_p50"] = quantile(slices, 0.5);
  m["slowdown_p90"] = quantile(slices, 0.9);
  return m;
}

/// Host-time values of a set of runs of one spec. A shared host switches
/// between speed modes for seconds at a time (a slow stretch makes every
/// step ~1.5x slower); a median over runs would follow how much of the
/// invocation the host spent slow, so both forms lean on the fast runs.
/// Single-domain: each step's least time over the runs. Step i simulates the
/// same events in every run (the digests prove it) and on one thread a
/// shared host only ever adds time, so this is the step's undisturbed cost.
/// Sharded: the lower quartile over the runs of each run's own value, every
/// run taken whole. Barrier waits and thread wake-ups are the program's own
/// cost and vary from run to run: a least time per step would stitch
/// together the luckiest schedule of every slice, and the least whole run
/// is itself an outlier.
MetricMap host_values(const std::vector<const Rep*>& reps, bool sharded) {
  if (reps.empty()) return {};
  if (!sharded) return step_values(least_steps(reps), reps.front()->window_pkts);
  std::map<std::string, std::vector<double>> per_run;
  for (const Rep* r : reps) {
    for (const auto& [name, v] : step_values(r->steps, r->window_pkts)) {
      per_run[name].push_back(v);
    }
  }
  MetricMap m;
  for (auto& [name, v] : per_run) m[name] = quantile(std::move(v), 0.25);
  // Every run delivers the same packets: the rate of the lower-quartile
  // window.
  m["sim_pkts_per_s"] = ratio(reps.front()->window_pkts, m["measure_s"]);
  return m;
}

/// The least value of `f` over the runs.
double least(const std::vector<const Rep*>& reps, double Rep::*f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(r->*f);
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

MetricMap e2e_values(const std::vector<const Rep*>& reps, bool sharded) {
  MetricMap m = host_values(reps, sharded);
  m["peak_rss_mb"] = static_cast<double>(proc_status_kib("VmHWM:")) / 1024.0;
  return m;
}

struct Estimate {
  const char* name;
  double seconds;
};

/// Traced runs of a workload's sharded variant: at its shard count and at
/// one shard, one of each per round.
struct ShardProbe {
  std::vector<const Rep*> sharded, shards1;
  int shards = 1;
  Nanos lookahead{0};
};

MetricMap layer_values(const Run& shape, const Rep& warmup,
                       const std::vector<const Rep*>& traced,
                       const std::vector<const Rep*>& untraced, const ShardProbe& probe,
                       const LayerCosts& lc, std::vector<Estimate>* estimates) {
  MetricMap m;
  const Rep& first = *traced.front();
  const Counters& a = first.at_reset;
  const Counters& b = first.at_end;
  const auto d = [&](std::int64_t Counters::*f) {
    return static_cast<double>(b.*f - a.*f);
  };
  const auto& spec = shape.spec();
  const bool sharded = shape.sharded();
  const double window_ns = static_cast<double>(spec.measure.count());
  MetricMap host = host_values(traced, sharded);
  const double measure_s = host["measure_s"];
  const double measure_cpu_s = host["measure_cpu_s"];
  const double events = d(&Counters::sim_events);

  m["sim.events"] = events;
  m["sim.pending_max"] = static_cast<double>(first.pending_max);
  m["sim.host_ns_per_event"] = ratio(measure_s * 1e9, events);
  m["sim.sched_wheel_ns_per_op"] = lc.sched_wheel_ns;
  m["sim.sched_heap_ns_per_op"] = lc.sched_heap_ns;
  m["sim.sched_cancel_ns_per_op"] = lc.sched_cancel_ns;

  const double hits = d(&Counters::llc_cpu_hits);
  const double misses = d(&Counters::llc_cpu_misses);
  const double ddio = d(&Counters::llc_ddio_writes);
  m["host.llc.ddio_writes"] = ddio;
  m["host.llc.cpu_hits"] = hits;
  m["host.llc.cpu_misses"] = misses;
  m["host.llc.hit_ratio"] = ratio(hits, hits + misses);
  m["host.llc.premature_evictions"] = d(&Counters::llc_premature);
  m["host.llc.writebacks"] = d(&Counters::llc_writebacks);
  m["host.llc.hit_ns_per_op"] = lc.llc_hit_ns;
  m["host.llc.miss_ns_per_op"] = lc.llc_miss_ns;
  m["host.llc.premature_ns_per_op"] = lc.llc_premature_ns;
  m["host.dram.requests"] = d(&Counters::dram_requests);
  m["host.mc.iio_stalls"] = d(&Counters::mc_iio_stalls);
  m["host.iio.rejects"] = d(&Counters::iio_rejects);
  const double busy = d(&Counters::cpu_busy_ns);
  m["host.cpu.packets"] = d(&Counters::cpu_packets);
  m["host.cpu.busy_frac"] = ratio(busy, window_ns * shape.flow_count());
  m["host.cpu.mem_stall_frac"] = ratio(d(&Counters::cpu_stall_ns), busy);

  m["pcie.dma.writes"] = d(&Counters::dma_writes);
  m["pcie.dma.reads"] = d(&Counters::dma_reads);
  m["pcie.dma.read_queue_peak"] = static_cast<double>(b.dma_read_queue_peak);
  m["pcie.up_mib"] = d(&Counters::pcie_up_bytes) / (1024.0 * 1024.0);
  m["pcie.down_mib"] = d(&Counters::pcie_down_bytes) / (1024.0 * 1024.0);

  const double rx = d(&Counters::nic_rx_packets);
  m["nic.rx_packets"] = rx;
  m["nic.mem.writes"] = d(&Counters::nicmem_writes);
  m["nic.mem.reads"] = d(&Counters::nicmem_reads);
  m["nic.mem.peak_kib"] = static_cast<double>(b.nicmem_peak_bytes) / 1024.0;
  m["nic.mem.alloc_failures"] = d(&Counters::nicmem_alloc_failures);
  m["nic.rmt.steer_ns_per_op"] = lc.rmt_steer_ns;

  m["net.link.packets"] = d(&Counters::link_packets);
  m["net.link.drops"] = d(&Counters::link_drops);
  m["net.link.ecn_marks"] = d(&Counters::link_ecn);
  m["net.src.sent"] = d(&Counters::src_sent);
  m["net.src.delivered"] = d(&Counters::src_delivered);
  m["net.src.dropped"] = d(&Counters::src_dropped);

  const double fast = d(&Counters::path_fast);
  const double slow = d(&Counters::path_slow);
  m["ceio.to_slow"] = d(&Counters::ceio_to_slow);
  m["ceio.to_fast"] = d(&Counters::ceio_to_fast);
  m["ceio.reclaims"] = d(&Counters::ceio_reclaims);
  m["ceio.reactivations"] = d(&Counters::ceio_reactivations);
  m["ceio.cca_triggers"] = d(&Counters::ceio_cca);
  m["ceio.elastic.buffered"] = slow;
  m["ceio.elastic.dropped"] = d(&Counters::nicmem_alloc_failures);
  m["ceio.fast_path_ratio"] = ratio(fast, fast + slow);
  m["ceio.credit_ns_per_op"] = lc.credit_ns;
  m["ceio.alg1_ns_per_op"] = lc.alg1_ns;
  m["ceio.swring_ns_per_op"] = lc.swring_ns;

  m["apps.kv.ops"] = d(&Counters::kv_ops);
  m["apps.echo.echoed"] = d(&Counters::echo_echoed);
  m["apps.linefs.chunks"] = d(&Counters::linefs_chunks);
  m["apps.thrasher.processed"] = d(&Counters::thrasher_processed);
  m["policy.governor.changes"] = d(&Counters::governor_changes);
  m["policy.way.ticks"] = d(&Counters::way_ticks);
  m["policy.way.repartitions"] = d(&Counters::way_repartitions);

  for (const char* t : {"tenant.lc.mpps", "tenant.lc.p99_us", "tenant.bw.message_gbps",
                        "tenant.ant.premature"}) {
    m[t] = 0.0;
  }
  for (const auto& t : first.tenants) {
    if (t.name == "lc") {
      m["tenant.lc.mpps"] = t.mpps;
      m["tenant.lc.p99_us"] = static_cast<double>(t.p99.count()) / 1e3;
    } else if (t.name == "bw") {
      m["tenant.bw.message_gbps"] = t.message_gbps;
    } else if (t.name == "ant") {
      m["tenant.ant.premature"] = static_cast<double>(t.premature_evictions);
    }
  }

  // Sharding, from the sharded variant (0 without one). Both of its run
  // kinds are traced, so speedup_vs_1 compares equal tracing costs.
  for (const char* k : {"shard.epochs", "shard.lookahead_ns", "shard.events_per_epoch",
                        "shard.mailbox_spills", "shard.imbalance", "shard.host_us_per_epoch",
                        "shard.barrier_ns_per_epoch", "shard.speedup_vs_1",
                        "estimate.barrier_frac"}) {
    m[k] = 0.0;
  }
  if (!probe.sharded.empty() && !probe.shards1.empty()) {
    const Counters& sa = probe.sharded.front()->at_reset;
    const Counters& sb = probe.sharded.front()->at_end;
    const auto epochs = static_cast<double>(sb.shard_epochs - sa.shard_epochs);
    double sum = 0.0, most = 0.0;
    for (std::size_t i = 0; i < sb.domain_events.size(); ++i) {
      const auto v = static_cast<double>(sb.domain_events[i] - sa.domain_events[i]);
      sum += v;
      most = std::max(most, v);
    }
    MetricMap at_n = host_values(probe.sharded, true);
    MetricMap at_1 = host_values(probe.shards1, true);
    m["shard.epochs"] = epochs;
    m["shard.lookahead_ns"] = static_cast<double>(probe.lookahead.count());
    m["shard.events_per_epoch"] = ratio(sum, epochs);
    m["shard.mailbox_spills"] = static_cast<double>(sb.shard_spills - sa.shard_spills);
    m["shard.imbalance"] = ratio(most, sum / static_cast<double>(sb.domain_events.size()));
    m["shard.host_us_per_epoch"] = ratio(at_n["measure_s"] * 1e6, epochs);
    m["shard.barrier_ns_per_epoch"] = lc.barrier_ns;
    m["shard.speedup_vs_1"] = ratio(at_1["wall_s"], at_n["wall_s"]);
    // Barrier cost is paid on every shard.
    m["estimate.barrier_frac"] =
        ratio(epochs * lc.barrier_ns * probe.shards * 1e-9, at_n["measure_cpu_s"]);
  }

  m["iopath.ctor_s"] = host["construct_s"];
  m["iopath.make_app_s"] = host["make_app_s"];
  m["iopath.add_flows_s"] = host["add_flows_s"];
  m["iopath.reset_s"] = host["reset_s"];
  m["iopath.collect_s"] = host["collect_s"];
  // Only the process's first run grows the heap; later runs reuse its pages.
  m["iopath.rss_kib_per_flow"] =
      ratio(static_cast<double>(warmup.rss_delta_kib), shape.flow_count());
  m["config.validate_s"] = least(traced, &Rep::validate_s);
  m["common.flow_table_dense_ns_per_op"] = lc.flow_dense_ns;
  m["common.flow_table_sparse_ns_per_op"] = lc.flow_sparse_ns;
  // Whole-run walls: the snapshots between steps are the tracing cost.
  m["trace.overhead_frac"] =
      ratio(least(traced, &Rep::wall_s), least(untraced, &Rep::wall_s)) - 1.0;

  // Estimated shares: the run's real counts times each layer's isolated
  // per-op cost, against the measure window's CPU time. One flow-table
  // lookup and one RMT steer per received packet is a floor, not a count.
  // Every event is charged the wheel cost: no public counter splits events
  // between the wheel and the far-timer heap.
  *estimates = {
      {"sim", events * lc.sched_wheel_ns * 1e-9},
      {"llc", (hits * lc.llc_hit_ns + misses * lc.llc_miss_ns + ddio * lc.llc_premature_ns) *
                  1e-9},
      {"flow_table", rx * lc.flow_dense_ns * 1e-9},
      {"rmt", rx * lc.rmt_steer_ns * 1e-9},
      {"ceio", (fast * lc.credit_ns + d(&Counters::ceio_reactivations) * lc.alg1_ns +
                (fast + slow) * lc.swring_ns) *
                   1e-9},
  };
  double attributed = 0.0;
  for (const Estimate& e : *estimates) {
    m[std::string("estimate.") + e.name + "_frac"] = ratio(e.seconds, measure_cpu_s);
    attributed += e.seconds;
  }
  m["estimate.unattributed_frac"] = 1.0 - ratio(attributed, measure_cpu_s);
  estimates->push_back({"unattributed", measure_cpu_s - attributed});
  return m;
}

// ---- output ----------------------------------------------------------------------

std::string rep_json(const Rep& r) {
  std::string s = "{\"kind\":" + jstr(to_string(r.kind)) + ",\"ok\":" + (r.ok ? "true" : "false") +
                  ",\"error\":" + jstr(r.error) + ",\"digest\":" + jstr(r.digest);
  s += ",\"wall_s\":" + jnum(r.wall_s) + ",\"cpu_s\":" + jnum(r.cpu_s) +
       ",\"validate_s\":" + jnum(r.validate_s);
  for (const char* name : {"construct", "make_app", "add_flows", "warmup", "reset", "collect"}) {
    s += std::string(",\"") + name + "_s\":" + jnum(total(r.steps, &Step::wall, name));
  }
  s += ",\"measure_s\":" + jnum(total(r.steps, &Step::wall, "slice")) +
       ",\"measure_cpu_s\":" + jnum(total(r.steps, &Step::cpu, "slice"));
  std::vector<std::string> slices;
  for (const double v : slowdowns(r.steps)) slices.push_back(jnum(v));
  return s + ",\"slowdowns\":[" + join(slices) + "]}";
}

std::string metrics_json(const MetricMap& values, const std::vector<MetricDef>& defs) {
  std::vector<std::string> items;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) throw std::logic_error(std::string("metric not set: ") + d.name);
    items.push_back(jstr(d.name) + ":{\"value\":" + jnum(it->second) + ",\"unit\":" +
                    jstr(d.unit) + "}");
  }
  return "{" + join(items) + "}";
}

std::string layer_table(const std::string& workload, std::uint64_t seed, const MetricMap& m,
                        const std::vector<Estimate>& estimates, double measure_cpu_s) {
  std::ostringstream out;
  char buf[256];
  out << "per-layer metrics: " << workload << " seed " << seed
      << " (sim = simulated, deterministic; host = host time)\n";
  std::snprintf(buf, sizeof buf, "%-36s %16s %-6s %-5s %s\n", "metric", "value", "unit", "kind",
                "moves / note");
  out << buf;
  for (const MetricDef& d : layer_metrics()) {
    std::snprintf(buf, sizeof buf, "%-36s %16.6g %-6s %-5s %s\n", d.name, m.at(d.name), d.unit,
                  d.kind, d.moves);
    out << buf;
  }
  out << "\nESTIMATED share of measure-window CPU (" << measure_cpu_s
      << " s): real counts x isolated per-op cost; not an in-run attribution;\n"
      << "sim charges every event the wheel cost (the far-timer heap is not counted)\n";
  for (const Estimate& e : estimates) {
    std::snprintf(buf, sizeof buf, "  %-14s %10.4f s  %6.1f%%\n", e.name, e.seconds,
                  100.0 * ratio(e.seconds, measure_cpu_s));
    out << buf;
  }
  return out.str();
}

// ---- commands ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
};

Args parse(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  return a;
}

const WorkloadDef& workload_or_throw(const std::string& name) {
  const WorkloadDef* w = find_workload(name);
  if (w == nullptr) throw std::invalid_argument("unknown workload '" + name + "'");
  return *w;
}

int cmd_run(const Args& args) {
  const WorkloadDef& w = workload_or_throw(args.workload);
  const harness::ExperimentSpec spec = make_spec(w, args.seed);
  const double t0 = wall_now();
  Tracer tracer(t0);
  std::vector<Rep> reps;
  const bool traced = args.trace != 0;
  const bool sharded = spec.testbed.sim.domains > 1;
  const bool probe = traced && !w.sharded.empty();
  const harness::ExperimentSpec probe_spec = probe ? make_spec(w, args.seed, true) : spec;
  harness::ExperimentSpec probe_one = probe_spec;
  probe_one.testbed.sim.shards = 1;
  // A round is one untraced run (the end-to-end metrics); in traced mode
  // also one traced run and, when the workload has a sharded variant, that
  // variant at its shard count and at one shard, so trace.overhead_frac and
  // shard.speedup_vs_1 compare equal counts of neighbours in time.
  // --seconds caps the rounds; a round is never cut.
  const auto add = [&](const harness::ExperimentSpec& s, RepKind kind, Tracer* t) {
    reps.push_back(run_once(s, kind, t, static_cast<int>(reps.size())));
  };
  add(spec, RepKind::kWarmup, nullptr);
  for (int round = 1; round <= kRounds; ++round) {
    add(spec, RepKind::kUntraced, nullptr);
    if (traced) add(spec, RepKind::kTraced, &tracer);
    if (probe) {
      add(probe_spec, RepKind::kSharded, &tracer);
      add(probe_one, RepKind::kShards1, &tracer);
    }
    if (wall_now() - t0 >= args.seconds) break;
  }
  // The sharded variant has no committed reference; it must report the
  // same at every shard count.
  const Rep* shard_ref = nullptr;
  for (Rep& r : reps) {
    if (!r.ok || (r.kind != RepKind::kSharded && r.kind != RepKind::kShards1)) continue;
    if (shard_ref == nullptr) {
      shard_ref = &r;
    } else if (r.digest != shard_ref->digest) {
      r.ok = false;
      r.error = "sharded variant digest " + r.digest + " differs from " + shard_ref->digest;
    }
  }

  const auto untraced = select(reps, RepKind::kUntraced);
  std::string metrics = "{}";
  std::vector<std::string> files;
  if (!traced && !untraced.empty()) {
    const MetricMap m = e2e_values(untraced, sharded);
    metrics = metrics_json(m, e2e_metrics());
    for (const MetricDef& d : e2e_metrics()) {
      std::printf("%-16s %14.6g %s\n", d.name, m.at(d.name), d.unit);
    }
  }
  if (traced) {
    const auto traced_reps = select(reps, RepKind::kTraced);
    if (!traced_reps.empty() && !untraced.empty()) {
      const Run shape(spec);
      ShardProbe shard_probe{select(reps, RepKind::kSharded), select(reps, RepKind::kShards1),
                             probe_spec.testbed.sim.shards, Nanos{0}};
      if (probe) {
        // Built (not run) only to read the lookahead.
        Run probe_shape(probe_spec);
        probe_shape.construct();
        shard_probe.lookahead = probe_shape.lookahead();
      }
      LayerSizing sizing;
      sizing.pending = static_cast<std::size_t>(traced_reps.front()->pending_max);
      sizing.llc = spec.testbed.llc;
      sizing.flows = static_cast<std::size_t>(shape.flow_count());
      sizing.credits = traced_reps.front()->credits;
      sizing.domains = probe_spec.testbed.sim.domains;
      sizing.shards = probe_spec.testbed.sim.shards;
      sizing.lookahead = shard_probe.lookahead;
      const LayerCosts lc = measure_layer_costs(sizing);
      std::vector<Estimate> estimates;
      const MetricMap m = layer_values(shape, reps.front(), traced_reps, untraced,
                                       shard_probe, lc, &estimates);
      metrics = metrics_json(m, layer_metrics());
      const std::string stem =
          args.out + "/" + w.name + "-seed" + std::to_string(args.seed);
      const std::string table =
          layer_table(w.name, args.seed, m, estimates,
                      host_values(traced_reps, sharded)["measure_cpu_s"]);
      std::fputs(table.c_str(), stdout);
      std::ofstream(stem + ".layers.txt") << table;
      tracer.write(stem + ".trace.json");
      files = {stem + ".trace.json", stem + ".layers.txt"};
    }
  }

  std::vector<std::string> rep_items, file_items;
  for (const Rep& r : reps) rep_items.push_back(rep_json(r));
  for (const std::string& f : files) file_items.push_back(jstr(f));
  const std::string out = "{\"workload\":" + jstr(w.name) +
                          ",\"seed\":" + std::to_string(args.seed) +
                          ",\"trace\":" + std::to_string(traced ? 1 : 0) + ",\"reps\":[" +
                          join(rep_items) + "],\"metrics\":" + metrics + ",\"files\":[" +
                          join(file_items) + "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int cmd_digest(const Args& args) {
  const WorkloadDef& w = workload_or_throw(args.workload);
  const Rep r = run_once(make_spec(w, args.seed), RepKind::kUntraced, nullptr, 0);
  if (!r.ok) throw std::runtime_error(r.error);
  std::printf("%s\n", r.digest.c_str());
  return 0;
}

int cmd_metrics() {
  for (const MetricDef& d : e2e_metrics()) std::printf("e2e %s %s\n", d.name, d.unit);
  for (const MetricDef& d : layer_metrics()) std::printf("layer %s %s\n", d.name, d.unit);
  return 0;
}

/// The replica's report, advancing the measure window in `slices` steps.
std::string replica_report(const harness::ExperimentSpec& spec, int slices) {
  Run run(spec);
  run.construct();
  run.make_app();
  run.add_flows();
  run.run_until(spec.warmup);
  run.reset_measurement();
  for (int k = 1; k <= slices; ++k) {
    run.run_until(spec.warmup + Nanos{spec.measure.count() * k / slices});
  }
  return serialize(run.collect());
}

int cmd_selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (const WorkloadDef& w : workloads()) {
    for (const bool sharded : {false, true}) {
      if (sharded && w.sharded.empty()) continue;
      const std::string name = w.name + (sharded ? " (sharded variant)" : "");
      harness::ExperimentSpec spec = make_spec(w, 1, sharded);
      spec.warmup = std::min(spec.warmup, ceio::micros(300));
      spec.measure = std::min(spec.measure, ceio::micros(400));
      const std::string whole = replica_report(spec, 1);
      expect(whole == serialize(harness::run_experiment(spec)),
             name + ": replica == harness::run_experiment");
      expect(whole == replica_report(spec, kSlices),
             name + ": " + std::to_string(kSlices) + " slices == one window");
      if (spec.testbed.sim.domains > 1) {
        harness::ExperimentSpec one = spec;
        one.testbed.sim.shards = 1;
        expect(whole == replica_report(one, kSlices),
               name + ": shards=1 == shards=" + std::to_string(spec.testbed.sim.shards));
      }
    }
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run") return cmd_run(parse(argc, argv, 2));
  if (cmd == "digest") return cmd_digest(parse(argc, argv, 2));
  if (cmd == "metrics") return cmd_metrics();
  if (cmd == "selftest") return cmd_selftest();
  std::fprintf(stderr, "usage: %s run|digest|metrics|selftest [--workload W] [--seed N] "
                       "[--seconds S] [--trace 0|1] [--out DIR]\n", argv[0]);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ceio_perfbench: %s\n", e.what());
    return 1;
  }
}

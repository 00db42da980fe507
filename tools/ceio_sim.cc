// ceio_sim — command-line scenario runner over the experiment harness.
//
// Run custom workloads against any of the four datapaths without writing
// code:
//
//   ceio_sim --system=ceio --flows=8 --rate-gbps=25 --pkt=512 --app=kv --ms=5
//   ceio_sim --scenario=fig04-reference
//   ceio_sim --config=scenario.conf --set workload.flows=16
//   ceio_sim --sweep llc.ddio_ways=2,4,6 --sweep run=0,1,2,3 --jobs 4
//   ceio_sim --scenario multitenant-reactive --trace mt
//
// Every field of the experiment spec is addressable through the reflective
// config schema: `--set llc.ddio_ways=4`, `--set workload.app=echo`,
// `--set ceio.release_batch=64`, ... (`--help-keys` lists them all). The
// classic short flags (--flows, --pkt, ...) remain as aliases, parsed by the
// same schema. `--scenario` replaces the whole spec, so it must come before
// every flag that changes the spec.
//
// Without --sweep, prints the per-flow and aggregate reports plus host-level
// cache statistics. With --sweep, expands the axes' cartesian product, runs
// the grid on --jobs worker threads, and prints one row per run — rows are
// ordered by run index, so output is byte-identical at any --jobs level.
//
// --trace PREFIX records the measure window of a single-domain run with the
// telemetry subsystem (sampling set by the `telemetry.*` keys) and writes
// PREFIX.trace.json (open in https://ui.perfetto.dev or chrome://tracing)
// and PREFIX.timeseries.csv; stdout is the same as without it.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "config/config_ops.h"
#include "harness/scenario_registry.h"
#include "harness/sweep.h"

using namespace ceio;

namespace {

struct CliOptions {
  harness::ExperimentSpec spec;
  std::vector<harness::SweepAxis> axes;
  int jobs = 1;
  std::string trace_prefix;  // empty: no recording
  bool print_config = false;
  bool print_overrides = false;
};

[[noreturn]] void usage(const char* argv0, int status) {
  std::FILE* out = status == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "\n"
               "workload (aliases for --set workload.*):\n"
               "  --system=ceio|legacy|hostcc|shring   datapath under test (default ceio)\n"
               "  --flows=N                            number of flows (default 8)\n"
               "  --rate-gbps=R                        offered rate per flow (default 25)\n"
               "  --pkt=BYTES                          packet size (default 512)\n"
               "  --app=kv|echo|vxlan|linefs|rdma|thrasher  application (default kv)\n"
               "  --chunk-kb=K                         message size for linefs/rdma (default 1024)\n"
               "  --ms=T                               measured simulated time (default 5)\n"
               "  --warmup-ms=T                        warmup before measuring (default 2)\n"
               "  --poisson                            Poisson interarrivals\n"
               "  --closed-loop=N                      N outstanding messages per flow\n"
               "  --burst-on-us=T --burst-off-us=T     on/off bursting\n"
               "  --seed=S                             RNG seed (default 1)\n"
               "  --shards=N                           worker threads when the scenario is\n"
               "                                       sharded (alias for --set sim.shards=N;\n"
               "                                       never changes results)\n"
               "\n"
               "configuration (reflective schema, dotted keys):\n"
               "  --scenario=NAME        start from a registered scenario (before any\n"
               "                         flag that changes the spec)\n"
               "  --config=FILE          apply a scenario file (key = value lines)\n"
               "  --set KEY=VALUE        override one field (e.g. llc.ddio_ways=4)\n"
               "  --list-scenarios       list registered scenarios and exit\n"
               "  --help-keys            list every settable key and exit\n"
               "  --print-config         print the effective config and exit\n"
               "  --print-overrides      print only non-default fields and exit\n"
               "\n"
               "sweeps:\n"
               "  --sweep KEY=V1,V2,...  sweep axis (repeatable; cartesian product;\n"
               "                         the reserved axis 'run' derives per-run seeds)\n"
               "  --runs=N               shorthand for --sweep run=0,1,...,N-1\n"
               "  --jobs=N               worker threads for the sweep (default 1)\n"
               "\n"
               "recording (single-domain runs, not sweeps):\n"
               "  --trace PREFIX         write PREFIX.trace.json (Perfetto) and\n"
               "                         PREFIX.timeseries.csv for the measure window;\n"
               "                         sampling via --set telemetry.*\n",
               argv0);
  std::exit(status);
}

/// Matches `--name=value`, `--name value` (consuming the next arg) or a bare
/// `--name` (empty value).
bool parse_flag(int argc, char** argv, int* i, const char* name, std::string* value) {
  const char* arg = argv[*i];
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] != '\0') return false;
  if (*i + 1 < argc && argv[*i + 1][0] != '-') {
    *value = argv[++*i];
  } else {
    *value = "";
  }
  return true;
}

/// The short flags. Each is an alias for one schema key: `--flag=V` sets
/// the key to V followed by the flag's unit through config::set, so a
/// malformed value is refused exactly like `--set`.
struct FlagAlias {
  const char* flag;
  const char* key;
  const char* unit;  // appended to the value; nullptr: a bare switch that sets true
};

constexpr FlagAlias kFlagAliases[] = {
    {"--system", "system", ""},
    {"--flows", "workload.flows", ""},
    {"--rate-gbps", "workload.offered_rate", "Gbps"},
    {"--pkt", "workload.packet_size", "B"},
    {"--app", "workload.app", ""},
    {"--chunk-kb", "workload.chunk_kb", ""},
    {"--ms", "measure", "ms"},
    {"--warmup-ms", "warmup", "ms"},
    {"--poisson", "workload.poisson", nullptr},
    {"--closed-loop", "workload.closed_loop", ""},
    {"--burst-on-us", "workload.burst_on", "us"},
    {"--burst-off-us", "workload.burst_off", "us"},
    {"--seed", "seed", ""},
    {"--shards", "sim.shards", ""},
};

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "ceio_sim: %s\n", message.c_str());
  std::exit(2);
}

/// The whole of `value` as a positive int, else exits 2 naming `flag`:
/// trailing junk, an empty value and an overflow are all refused.
int parse_count(const char* flag, const std::string& value) {
  int n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc{} || ptr != end || n < 1) {
    fail(std::string(flag) + " expects a positive count, got '" + value + "'");
  }
  return n;
}

void apply_set(harness::ExperimentSpec& spec, const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos) fail("--set expects KEY=VALUE, got '" + kv + "'");
  std::string error;
  if (!config::set(spec, kv.substr(0, eq), kv.substr(eq + 1), &error)) fail(error);
}

void apply_config_file(harness::ExperimentSpec& spec, const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open config file '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!config::apply_text(spec, buffer.str(), &error)) fail(path + ": " + error);
}

void list_scenarios() {
  for (const auto* s : harness::ScenarioRegistry::instance().all()) {
    std::printf("%-18s %s\n", s->name.c_str(), s->description.c_str());
  }
}

void list_keys(const harness::ExperimentSpec& spec) {
  for (const auto& [key, value] : config::entries(spec)) {
    std::printf("%s = %s\n", key.c_str(), value.c_str());
  }
}

/// Matches argv[*i] against the alias table; on a match, stores the value
/// the schema key receives in *value.
const FlagAlias* match_alias(int argc, char** argv, int* i, std::string* value) {
  for (const FlagAlias& alias : kFlagAliases) {
    if (alias.unit == nullptr) {
      if (std::strcmp(argv[*i], alias.flag) != 0) continue;
      *value = "true";
      return &alias;
    }
    if (parse_flag(argc, argv, i, alias.flag, value)) {
      *value += alias.unit;
      return &alias;
    }
  }
  return nullptr;
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  harness::ExperimentSpec& spec = opt.spec;
  int runs = 0;
  // The last flag that changed the spec: a --scenario after it would
  // silently replace what it set.
  std::string spec_flag;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    std::string error;
    if (parse_flag(argc, argv, &i, "--help", &v) || parse_flag(argc, argv, &i, "-h", &v)) {
      usage(argv[0], 0);
    } else if (const FlagAlias* alias = match_alias(argc, argv, &i, &v)) {
      if (!config::set(spec, alias->key, v, &error)) fail(alias->flag + (": " + error));
      spec_flag = alias->flag;
    } else if (parse_flag(argc, argv, &i, "--scenario", &v)) {
      if (!spec_flag.empty()) {
        fail("--scenario replaces the whole spec and would drop the earlier " + spec_flag +
             "; give it first, once");
      }
      const auto* s = harness::ScenarioRegistry::instance().find(v);
      if (s == nullptr) fail("unknown scenario '" + v + "' (--list-scenarios)");
      spec = s->spec;
      spec_flag = "--scenario";
    } else if (parse_flag(argc, argv, &i, "--config", &v)) {
      apply_config_file(spec, v);
      spec_flag = "--config";
    } else if (parse_flag(argc, argv, &i, "--set", &v)) {
      apply_set(spec, v);
      spec_flag = "--set";
    } else if (parse_flag(argc, argv, &i, "--sweep", &v)) {
      harness::SweepAxis axis;
      if (!harness::parse_axis(v, &axis, &error)) fail("--sweep: " + error);
      opt.axes.push_back(std::move(axis));
    } else if (parse_flag(argc, argv, &i, "--runs", &v)) {
      runs = parse_count("--runs", v);
    } else if (parse_flag(argc, argv, &i, "--jobs", &v)) {
      opt.jobs = parse_count("--jobs", v);
    } else if (parse_flag(argc, argv, &i, "--trace", &v)) {
      if (v.empty()) fail("--trace expects an output prefix");
      opt.trace_prefix = v;
    } else if (parse_flag(argc, argv, &i, "--list-scenarios", &v)) {
      list_scenarios();
      std::exit(0);
    } else if (parse_flag(argc, argv, &i, "--help-keys", &v)) {
      list_keys(spec);
      std::exit(0);
    } else if (parse_flag(argc, argv, &i, "--print-config", &v)) {
      opt.print_config = true;
    } else if (parse_flag(argc, argv, &i, "--print-overrides", &v)) {
      opt.print_overrides = true;
    } else {
      usage(argv[0], 2);
    }
  }
  if (runs > 0) {
    harness::SweepAxis axis;
    axis.key = "run";
    for (int r = 0; r < runs; ++r) axis.values.push_back(std::to_string(r));
    opt.axes.push_back(std::move(axis));
  }
  std::vector<std::string> errors;
  if (!config::validate(spec, &errors)) fail(errors.front());
  if (!harness::is_known_app(spec.workload.app)) {
    fail("unknown app '" + spec.workload.app + "'");
  }
  if (!opt.trace_prefix.empty() && !opt.axes.empty()) {
    fail("--trace records one run; it cannot be combined with --sweep or --runs");
  }
  return opt;
}

void print_single(const harness::ExperimentSpec& spec, const harness::RunResult& result) {
  std::printf("ceio_sim: system=%s app=%s flows=%d pkt=%lldB rate=%.1fG/flow ms=%.1f\n\n",
              to_string(spec.testbed.system), spec.workload.app.c_str(), spec.workload.flows,
              static_cast<long long>(spec.workload.packet_size.count()),
              to_gbps(spec.workload.offered_rate), to_millis(spec.measure));
  TablePrinter table({"flow", "Mpps", "Gbps", "msg Gbps", "p50(us)", "p99(us)",
                      "p99.9(us)", "msgs", "drops"});
  for (const auto& r : result.flows) {
    table.add_row({std::to_string(r.id), TablePrinter::fmt(r.mpps),
                   TablePrinter::fmt(r.gbps), TablePrinter::fmt(r.message_gbps),
                   TablePrinter::fmt(to_micros(r.p50), 1),
                   TablePrinter::fmt(to_micros(r.p99), 1),
                   TablePrinter::fmt(to_micros(r.p999), 1), std::to_string(r.messages),
                   std::to_string(r.drops)});
  }
  table.print();
  std::printf("\naggregate: %.2f Mpps, %.1f Gbps delivered, %.1f Gbps committed\n",
              result.aggregate_mpps, result.aggregate_gbps, result.aggregate_message_gbps);
  std::printf("LLC: miss %.2f%%, %lld premature evictions; DRAM util %.1f%%\n",
              result.llc_miss_rate * 100.0,
              static_cast<long long>(result.premature_evictions),
              result.dram_utilization * 100.0);
  if (result.has_ceio) {
    std::printf("CEIO: C_total=%lld, to_slow=%lld, to_fast=%lld, cca=%lld, reclaims=%lld\n",
                static_cast<long long>(result.ceio_total_credits),
                static_cast<long long>(result.ceio_to_slow),
                static_cast<long long>(result.ceio_to_fast),
                static_cast<long long>(result.ceio_cca_triggers),
                static_cast<long long>(result.ceio_reclaims));
  }
  if (spec.testbed.policy.governor != policy::GovernorMode::kOff) {
    std::printf("governor: %lld ticks, %lld decision changes\n",
                static_cast<long long>(result.governor_ticks),
                static_cast<long long>(result.governor_changes));
  }
  // Tenant table only for multi-tenant runs: single-tenant output stays
  // byte-identical to the pre-tenant format.
  if (!result.tenants.empty()) {
    std::printf("\n");
    TablePrinter tenants({"tenant", "app", "flows", "ways", "occ/cap", "Mpps", "Gbps",
                          "p99(us)", "prem", "bypass", "drops"});
    for (const auto& t : result.tenants) {
      tenants.add_row({t.name, t.app, std::to_string(t.flows), std::to_string(t.ddio_ways),
                       std::to_string(t.ddio_occupancy) + "/" + std::to_string(t.ddio_capacity),
                       TablePrinter::fmt(t.mpps), TablePrinter::fmt(t.gbps),
                       TablePrinter::fmt(to_micros(t.p99), 1),
                       std::to_string(t.premature_evictions),
                       std::to_string(t.budget_bypasses), std::to_string(t.drops)});
    }
    tenants.print();
    std::printf("way controller: %lld repartitions\n",
                static_cast<long long>(result.way_repartitions));
  }
}

void print_sweep(const CliOptions& opt, const std::vector<harness::SweepRow>& rows) {
  std::printf("ceio_sim sweep: %zu runs over %zu axes\n\n", rows.size(), opt.axes.size());
  std::vector<std::string> header{"#"};
  for (const auto& axis : opt.axes) header.push_back(axis.key);
  header.insert(header.end(), {"Mpps", "Gbps", "msg Gbps", "miss%", "drops"});
  TablePrinter table(header);
  for (const auto& row : rows) {
    std::vector<std::string> cells{std::to_string(row.index)};
    for (const auto& [key, value] : row.coordinates) cells.push_back(value);
    std::int64_t drops = 0;
    for (const auto& r : row.result.flows) drops += r.drops;
    cells.push_back(TablePrinter::fmt(row.result.aggregate_mpps));
    cells.push_back(TablePrinter::fmt(row.result.aggregate_gbps, 1));
    cells.push_back(TablePrinter::fmt(row.result.aggregate_message_gbps, 1));
    cells.push_back(TablePrinter::fmt(row.result.llc_miss_rate * 100.0, 1));
    cells.push_back(std::to_string(drops));
    table.add_row(std::move(cells));
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  if (opt.print_config) {
    std::fputs(config::print(opt.spec).c_str(), stdout);
    return 0;
  }
  if (opt.print_overrides) {
    for (const auto& [key, value] : config::diff_from_default(opt.spec)) {
      std::printf("%s = %s\n", key.c_str(), value.c_str());
    }
    return 0;
  }

  // A refused spec, sweep axis or --trace surfaces here as an exception.
  try {
    if (!opt.axes.empty()) {
      print_sweep(opt, harness::run_sweep(opt.spec, opt.axes, opt.jobs));
    } else {
      print_single(opt.spec, harness::run_experiment(opt.spec, opt.trace_prefix));
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return 0;
}

// Declarative experiment spec + runner over the Testbed.
//
// An ExperimentSpec is a complete, reflected description of one run: the
// full TestbedConfig, a workload (application + flow shape), and the
// warmup/measure windows. Because the spec is reflected (see visit_fields
// below), it parses from scenario files and `--set key=value` overrides,
// prints, diffs and validates exactly like any config struct — and the
// TestbedConfig fields are inlined at the top level, so `llc.ddio_ways=4`
// and `workload.flows=16` address one spec.
//
// run_experiment() reproduces the canonical run loop every CLI/bench used
// to hand-roll: build the Testbed, create the application, add
// `workload.flows` identical flows (ids 1..N), warm up, reset measurement,
// run the measure window, and collect a RunResult. The construction order
// (app first, then flows in id order) is part of the contract: the KV store
// populates itself from the Testbed Rng, so reordering would change every
// downstream random draw and break bit-reproducibility.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "config/schema.h"
#include "iopath/testbed.h"
#include "tenant/tenant_bed.h"

namespace ceio::harness {

/// Application + flow shape for the canonical single-phase experiment.
struct WorkloadSpec {
  /// kv | echo | vxlan | linefs | rdma (linefs/rdma are CPU-bypass).
  std::string app = "kv";
  int flows = 8;
  BitsPerSec offered_rate = gbps(25.0);
  Bytes packet_size{512};
  /// Bypass message size in KiB (linefs/rdma): each message is chunk_kb
  /// over the effective packet size, at least one packet. Involved apps
  /// send one-packet messages.
  std::int64_t chunk_kb = 1024;
  bool poisson = false;
  int closed_loop = 0;
  Nanos burst_on{0};
  Nanos burst_off{0};
};

struct ExperimentSpec {
  TestbedConfig testbed;
  WorkloadSpec workload;
  /// Multi-tenant co-location (tenant.enabled=true replaces `workload` with
  /// the per-tenant flow shapes) and the DDIO way-partition controller.
  tenant::TenantSetConfig tenant;
  tenant::WayControllerConfig controller;
  Nanos warmup = millis(2);
  Nanos measure = millis(5);
};

/// Everything a run produces; formatting stays in the callers so existing
/// outputs remain byte-identical.
struct RunResult {
  std::vector<FlowReport> flows;
  double aggregate_mpps = 0.0;
  double aggregate_gbps = 0.0;          // display metric (lint: allow-raw-unit-param)
  double aggregate_message_gbps = 0.0;  // display metric (lint: allow-raw-unit-param)
  double llc_miss_rate = 0.0;
  std::int64_t premature_evictions = 0;
  double dram_utilization = 0.0;
  // CEIO runtime counters (valid when has_ceio).
  bool has_ceio = false;
  std::int64_t ceio_total_credits = 0;
  std::int64_t ceio_to_slow = 0;
  std::int64_t ceio_to_fast = 0;
  std::int64_t ceio_cca_triggers = 0;
  std::int64_t ceio_reclaims = 0;
  // Multi-tenant runs: one report per tenant (empty otherwise) plus the
  // controller's way-migration count.
  std::vector<tenant::TenantReport> tenants;
  std::int64_t way_repartitions = 0;
  // Governed runs (policy.governor != off): decision ticks and ticks whose
  // decision changed, summed over domains.
  std::int64_t governor_ticks = 0;
  std::int64_t governor_changes = 0;
};

// The application-name table lives with the Testbed (iopath/testbed.h) so
// the tenant assembly makes its applications through it too.
using ceio::is_bypass_app;
using ceio::is_known_app;
using ceio::make_app;

/// The FlowConfig the canonical runner gives flow `id` under `w` — exposed
/// so callers composing custom phase logic build identical flows.
FlowConfig flow_config(FlowId id, const WorkloadSpec& w);

/// Maps one tenant's flow shape onto the canonical WorkloadSpec so that
/// flow_config() builds bit-identical flows for single-domain and sharded
/// multi-tenant runs.
WorkloadSpec tenant_workload(const tenant::TenantConfig& cfg);

/// Flow-derived columns of the per-tenant reports: aggregates over each
/// tenant's flow-id block of `flows` (which must cover all roster flows).
std::vector<tenant::TenantReport> tenant_flow_reports(
    const std::vector<tenant::TenantRosterEntry>& roster,
    const std::vector<FlowReport>& flows);

/// Every flow `spec` deploys, in id order: ids 1..workload.flows, or each
/// enabled tenant's roster block in its own shape. Single-domain and sharded
/// runs build their flows from this one enumeration.
void for_each_flow(const ExperimentSpec& spec, const std::function<void(const FlowConfig&)>& fn);

/// Warm up for `warmup`, reset measurement, then run `measure` — the
/// settle-then-measure window every scenario uses.
void settle_and_measure(Testbed& bed, Nanos warmup, Nanos measure);

/// The one collector: `flows` (id order) and their aggregates, host stats
/// merged over the run's event domains `beds` in domain order, and — when
/// `assemblies` (one per domain) is non-empty — the per-tenant reports. A
/// single-domain run is its one-domain case.
RunResult collect_domains(std::vector<FlowReport> flows, const std::vector<Testbed*>& beds,
                          const std::vector<tenant::TenantAssembly*>& assemblies = {});

/// Collects a RunResult from the testbed's current measurement window:
/// collect_domains over this one domain, without tenant columns.
RunResult collect_result(Testbed& bed);

/// The canonical single-phase experiment (see file comment for the exact
/// sequence). The spec must pass config::validate and name a known app.
///
/// A non-empty `trace_prefix` also records the measure window: telemetry
/// (configured by the spec's `telemetry.*` keys) is enabled right after the
/// measurement reset and disabled before collection, and the recording is
/// written to `trace_prefix`.trace.json and `trace_prefix`.timeseries.csv.
/// The RunResult is bit-identical to an unrecorded run. Recording needs a
/// single event domain: throws std::invalid_argument for sim.domains > 1,
/// and std::runtime_error naming the file when one cannot be written.
RunResult run_experiment(const ExperimentSpec& spec, const std::string& trace_prefix = {});

/// Flow-count-weighted mean of per-flow p99/p999 (integer Nanos division,
/// matching the historical bench arithmetic) plus total drops.
struct TailSummary {
  Nanos p99{0};
  Nanos p999{0};
  std::int64_t drops = 0;
};
TailSummary average_tails(const std::vector<FlowReport>& reports);

// Kind-filtered aggregates over collected reports: the same functions
// Testbed::aggregate_* sum through.
using ceio::aggregate_gbps;
using ceio::aggregate_message_gbps;
using ceio::aggregate_mpps;

}  // namespace ceio::harness

// ---- reflection ------------------------------------------------------------

namespace ceio::harness {

template <class V>
void visit_fields(WorkloadSpec& c, V&& v) {
  v.field("app", c.app);
  v.field("flows", c.flows, 1, 1 << 20);
  v.field("offered_rate", c.offered_rate, kMinRate, kMaxRate);
  v.field("packet_size", c.packet_size, Bytes{1}, Bytes{64 * kKiB});
  v.field("chunk_kb", c.chunk_kb, std::int64_t{1}, std::int64_t{1} << 30);
  v.field("poisson", c.poisson);
  v.field("closed_loop", c.closed_loop, 0, 1 << 20);
  v.field("burst_on", c.burst_on, Nanos{0}, Nanos::max());
  v.field("burst_off", c.burst_off, Nanos{0}, Nanos::max());
}

template <class V>
void visit_fields(ExperimentSpec& c, V&& v) {
  // Testbed fields are inlined (no prefix): `llc.ddio_ways`, `system`,
  // `seed`, ... address the testbed directly, as the CLI documents.
  visit_fields(c.testbed, v);
  v.nested("workload", c.workload);
  v.nested("tenant", c.tenant);
  v.nested("controller", c.controller);
  v.field("warmup", c.warmup, Nanos{0}, seconds(100));
  v.field("measure", c.measure, Nanos{1}, seconds(100));
}

}  // namespace ceio::harness

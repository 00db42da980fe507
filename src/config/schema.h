// Central field-visitor registry: one visit_fields() per config struct in
// src/, plus the enum name tables the codec needs. This is the single place
// a config field is spelled for the schema — parsing, printing, diffing and
// validation in config_ops.h all derive from these lists, and the ceio_lint
// `unreflected-config` rule fails any `struct *Config` in src/ that is
// missing here.
//
// Conventions:
//   * key names mirror the C++ field names exactly;
//   * nested configs use the TestbedConfig member names as path segments,
//     so `llc.ddio_ways=4` and `pcie.tlp.max_payload=512B` address fields;
//   * ranges are attached where a value outside them is meaningless (not
//     merely unusual) — validation must never reject a config the models
//     would simulate sensibly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/thrasher.h"
#include "apps/vxlan.h"
#include "baselines/hostcc.h"
#include "baselines/legacy.h"
#include "baselines/shring.h"
#include "ceio/ceio_datapath.h"
#include "config/value_codec.h"
#include "host/cache.h"
#include "host/cpu_core.h"
#include "host/dram.h"
#include "host/iio.h"
#include "host/memory_controller.h"
#include "iopath/testbed.h"
#include "net/dctcp.h"
#include "net/flow.h"
#include "net/network_link.h"
#include "nic/nic.h"
#include "nic/nic_memory.h"
#include "nic/packet.h"
#include "nic/rmt_engine.h"
#include "pcie/dma_engine.h"
#include "pcie/pcie_link.h"
#include "pcie/tlp.h"
#include "telemetry/telemetry.h"
#include "tenant/tenant_config.h"

// ---- enum name tables ------------------------------------------------------
// First listed name per value is canonical; decode accepts all, any case.

namespace ceio::config {

template <>
struct EnumNames<SystemKind> {
  static constexpr std::pair<SystemKind, const char*> entries[] = {
      {SystemKind::kLegacy, "legacy"},   {SystemKind::kLegacy, "baseline"},
      {SystemKind::kHostcc, "hostcc"},   {SystemKind::kShring, "shring"},
      {SystemKind::kCeio, "ceio"},
  };
};

template <>
struct EnumNames<SteerAction> {
  static constexpr std::pair<SteerAction, const char*> entries[] = {
      {SteerAction::kToHost, "to_host"},
      {SteerAction::kToNicMem, "to_nic_mem"},
      {SteerAction::kDrop, "drop"},
  };
};

template <>
struct EnumNames<SteerPolicy> {
  static constexpr std::pair<SteerPolicy, const char*> entries[] = {
      {SteerPolicy::kCreditBased, "credit"},
      {SteerPolicy::kMpqPias, "mpq"},
  };
};

template <>
struct EnumNames<FlowKind> {
  static constexpr std::pair<FlowKind, const char*> entries[] = {
      {FlowKind::kCpuInvolved, "involved"},
      {FlowKind::kCpuBypass, "bypass"},
  };
};

template <>
struct EnumNames<tenant::PartitionPolicy> {
  static constexpr std::pair<tenant::PartitionPolicy, const char*> entries[] = {
      {tenant::PartitionPolicy::kStatic, "static"},
      {tenant::PartitionPolicy::kReactive, "reactive"},
      {tenant::PartitionPolicy::kReactive, "ioca"},
  };
};

template <>
struct EnumNames<policy::GovernorMode> {
  static constexpr std::pair<policy::GovernorMode, const char*> entries[] = {
      {policy::GovernorMode::kOff, "off"},
      {policy::GovernorMode::kOff, "none"},
      {policy::GovernorMode::kStatic, "static"},
      {policy::GovernorMode::kReactive, "reactive"},
      {policy::GovernorMode::kReactive, "adaptive"},
  };
};

}  // namespace ceio::config

// ---- field lists -----------------------------------------------------------
// visit_fields lives in namespace ceio so ADL finds it from config_ops.h.

namespace ceio {

/// Range of every rate: a traffic source's pace and DCTCP bounds, and each
/// link's or memory's bandwidth. At zero or below, transmit_time() is 0 ns:
/// a paced source would emit at `now` forever, a Poisson one every
/// nanosecond, and a zero bandwidth would move any load in no time.
inline constexpr BitsPerSec kMinRate{1.0};
inline constexpr BitsPerSec kMaxRate = gbps(1e6);

// -- host/ -------------------------------------------------------------------

template <class V>
void visit_fields(LlcConfig& c, V&& v) {
  v.field("total_bytes", c.total_bytes, Bytes{4 * kKiB}, Bytes{4 * kGiB});
  v.field("ways", c.ways, 1, 256);
  v.field("ddio_ways", c.ddio_ways, 0, 256);
  v.field("buffer_bytes", c.buffer_bytes, Bytes{64}, Bytes{16 * kMiB});
}

template <class V>
void visit_fields(DramConfig& c, V&& v) {
  v.field("access_latency", c.access_latency, Nanos{0}, seconds(1));
  v.field("bandwidth", c.bandwidth, kMinRate, kMaxRate);
}

template <class V>
void visit_fields(IioConfig& c, V&& v) {
  v.field("capacity", c.capacity, Bytes{0}, Bytes{kGiB});
}

template <class V>
void visit_fields(MemoryControllerConfig& c, V&& v) {
  v.field("llc_write_latency", c.llc_write_latency, Nanos{0}, seconds(1));
  v.field("llc_hit_latency", c.llc_hit_latency, Nanos{0}, seconds(1));
  v.field("iio_retry_delay", c.iio_retry_delay, Nanos{1}, seconds(1));
  v.field("bulk_mlp", c.bulk_mlp, 1, 1024);
  v.field("miss_descriptor_bytes", c.miss_descriptor_bytes, Bytes{0}, Bytes{4 * kKiB});
}

template <class V>
void visit_fields(CpuCoreConfig& c, V&& v) {
  v.field("per_packet_cost", c.per_packet_cost, Nanos{0}, seconds(1));
  v.field("per_byte_cost_ns", c.per_byte_cost_ns, 0.0, 1e6);
}

// -- pcie/ -------------------------------------------------------------------

template <class V>
void visit_fields(TlpConfig& c, V&& v) {
  v.field("max_payload", c.max_payload, Bytes{1}, Bytes{64 * kKiB});
  v.field("header_bytes", c.header_bytes, Bytes{0}, Bytes{kKiB});
  v.field("framing_bytes", c.framing_bytes, Bytes{0}, Bytes{kKiB});
  v.field("dllp_bytes", c.dllp_bytes, Bytes{0}, Bytes{kKiB});
}

template <class V>
void visit_fields(PcieLinkConfig& c, V&& v) {
  v.field("bandwidth", c.bandwidth, kMinRate, kMaxRate);
  v.field("propagation", c.propagation, Nanos{0}, seconds(1));
  v.nested("tlp", c.tlp);
}

template <class V>
void visit_fields(DmaEngineConfig& c, V&& v) {
  v.field("max_outstanding_reads", c.max_outstanding_reads, 1, 1 << 20);
  v.field("doorbell_latency", c.doorbell_latency, Nanos{0}, seconds(1));
}

// -- nic/ --------------------------------------------------------------------

template <class V>
void visit_fields(NicConfig& c, V&& v) {
  v.field("per_packet_cost", c.per_packet_cost, Nanos{0}, seconds(1));
}

template <class V>
void visit_fields(NicMemoryConfig& c, V&& v) {
  v.field("capacity", c.capacity, Bytes{0}, Bytes{1024 * kGiB});
  v.field("bandwidth", c.bandwidth, kMinRate, kMaxRate);
  v.field("access_latency", c.access_latency, Nanos{0}, seconds(1));
  v.field("switch_latency", c.switch_latency, Nanos{0}, seconds(1));
  v.field("per_request_overhead", c.per_request_overhead, Nanos{0}, seconds(1));
}

template <class V>
void visit_fields(RmtConfig& c, V&& v) {
  v.field("rule_update_latency", c.rule_update_latency, Nanos{0}, seconds(1));
  v.field("table_capacity", c.table_capacity);
  v.field("default_action", c.default_action);
}

// -- net/ --------------------------------------------------------------------

template <class V>
void visit_fields(NetworkLinkConfig& c, V&& v) {
  v.field("rate", c.rate, kMinRate, kMaxRate);
  v.field("queue_capacity", c.queue_capacity, Bytes{0}, Bytes{kGiB});
  v.field("ecn_threshold", c.ecn_threshold, Bytes{0}, Bytes{kGiB});
  v.field("propagation", c.propagation, Nanos{0}, seconds(1));
}

template <class V>
void visit_fields(DctcpConfig& c, V&& v) {
  v.field("g", c.g, 0.0, 1.0);
  v.field("window", c.window, Nanos{1}, seconds(1));
  v.field("min_rate", c.min_rate, kMinRate, kMaxRate);
  v.field("max_rate", c.max_rate, kMinRate, kMaxRate);
  v.field("additive_increase", c.additive_increase, BitsPerSec{0}, kMaxRate);
  v.field("loss_backoff", c.loss_backoff, 0.0, 1.0);
}

template <class V>
void visit_fields(FlowConfig& c, V&& v) {
  v.field("id", c.id);
  v.field("kind", c.kind);
  v.field("packet_size", c.packet_size, Bytes{1}, Bytes{64 * kKiB});
  v.field("message_pkts", c.message_pkts, std::uint32_t{1}, std::uint32_t{1} << 24);
  v.field("offered_rate", c.offered_rate, kMinRate, kMaxRate);
  v.field("closed_loop_outstanding", c.closed_loop_outstanding, 0, 1 << 20);
  v.field("poisson", c.poisson);
  v.field("burst_on", c.burst_on, Nanos{0}, Nanos::max());
  v.field("burst_off", c.burst_off, Nanos{0}, Nanos::max());
  v.field("start_time", c.start_time, Nanos{0}, Nanos::max());
  v.field("stop_time", c.stop_time, Nanos{0}, Nanos::max());
}

// -- baselines/ --------------------------------------------------------------

template <class V>
void visit_fields(LegacyConfig& c, V&& v) {
  v.field("ring_entries", c.ring_entries, std::size_t{1}, std::size_t{1} << 24);
}

template <class V>
void visit_fields(HostccConfig& c, V&& v) {
  v.field("ring_entries", c.ring_entries, std::size_t{1}, std::size_t{1} << 24);
  v.field("poll_interval", c.poll_interval, Nanos{1}, seconds(1));
  v.field("iio_threshold", c.iio_threshold, 0.0, 1.0);
  v.field("dram_queue_threshold", c.dram_queue_threshold, Nanos{0}, seconds(1));
  v.field("eviction_rate_threshold", c.eviction_rate_threshold, 0.0, 1e12);
  v.field("signal_min_gap", c.signal_min_gap, Nanos{0}, seconds(1));
}

template <class V>
void visit_fields(ShringConfig& c, V&& v) {
  v.field("ring_entries", c.ring_entries, std::size_t{1}, std::size_t{1} << 24);
  v.field("backpressure_threshold", c.backpressure_threshold, 0.0, 1.0);
  v.field("signal_min_gap", c.signal_min_gap, Nanos{0}, seconds(1));
  v.field("stale_message_timeout", c.stale_message_timeout, Nanos{1}, seconds(1));
  v.field("sweep_interval", c.sweep_interval, Nanos{1}, seconds(1));
}

// -- ceio/ -------------------------------------------------------------------

template <class V>
void visit_fields(CeioConfig& c, V&& v) {
  v.field("policy", c.policy);
  v.field("mpq_thresholds", c.mpq_thresholds);
  v.field("mpq_fast_levels", c.mpq_fast_levels, 0, 64);
  v.field("total_credits", c.total_credits, std::int64_t{0}, std::int64_t{1} << 32);
  v.field("controller_latency", c.controller_latency, Nanos{0}, seconds(1));
  v.field("poll_interval", c.poll_interval, Nanos{1}, seconds(1));
  v.field("doorbell_latency", c.doorbell_latency, Nanos{0}, seconds(1));
  v.field("release_batch", c.release_batch, 1, 1 << 20);
  v.field("inactive_timeout", c.inactive_timeout, Nanos{1}, seconds(10));
  v.field("reactivate_period", c.reactivate_period, Nanos{1}, seconds(1));
  v.field("reactivate_per_round", c.reactivate_per_round, 0, 1 << 20);
  v.field("reactivations_per_sec", c.reactivations_per_sec, 0.0, 1e12);
  v.field("reactivation_burst", c.reactivation_burst, 0.0, 1e9);
  v.field("poll_scan_limit", c.poll_scan_limit, std::size_t{1}, std::size_t{1} << 24);
  v.field("reenable_fraction", c.reenable_fraction, 0.0, 1.0);
  v.field("fast_ring_entries", c.fast_ring_entries, std::size_t{1}, std::size_t{1} << 24);
  v.field("drain_window", c.drain_window, std::size_t{1}, std::size_t{1} << 24);
  v.field("landed_cap", c.landed_cap, std::size_t{1}, std::size_t{1} << 24);
  v.field("bypass_cca_threshold", c.bypass_cca_threshold, std::size_t{1}, std::size_t{1} << 24);
  v.field("slow_cca_threshold", c.slow_cca_threshold, std::size_t{1}, std::size_t{1} << 24);
  v.field("cca_min_gap", c.cca_min_gap, Nanos{0}, seconds(1));
  v.field("reenable_backlog", c.reenable_backlog, std::size_t{0}, std::size_t{1} << 24);
  v.field("async_drain", c.async_drain);
  v.field("phase_exclusive", c.phase_exclusive);
  v.field("reorder_penalty", c.reorder_penalty, Nanos{0}, seconds(1));
}

// -- apps/ -------------------------------------------------------------------

template <class V>
void visit_fields(KvConfig& c, V&& v) {
  v.field("entries", c.entries, std::size_t{1}, std::size_t{1} << 30);
  v.field("key_bytes", c.key_bytes, Bytes{1}, Bytes{kMiB});
  v.field("value_bytes", c.value_bytes, Bytes{1}, Bytes{kMiB});
  v.field("get_fraction", c.get_fraction, 0.0, 1.0);
  v.field("zipf_skew", c.zipf_skew, 0.0, 16.0);
  v.field("lookup_cost", c.lookup_cost, Nanos{0}, seconds(1));
  v.field("response_cost", c.response_cost, Nanos{0}, seconds(1));
  v.field("zero_copy", c.zero_copy);
}

template <class V>
void visit_fields(LineFsConfig& c, V&& v) {
  v.field("chunk_bytes", c.chunk_bytes, Bytes{1}, Bytes{kGiB});
  v.field("replication_factor", c.replication_factor, 0, 64);
  v.field("log_append_cost", c.log_append_cost, Nanos{0}, seconds(1));
  v.field("copy_cost_ns_per_byte", c.copy_cost_ns_per_byte, 0.0, 1e6);
}

template <class V>
void visit_fields(EchoConfig& c, V&& v) {
  v.field("touch_cost", c.touch_cost, Nanos{0}, seconds(1));
}

template <class V>
void visit_fields(VxlanConfig& c, V&& v) {
  v.field("decap_cost", c.decap_cost, Nanos{0}, seconds(1));
  v.field("lookup_cost", c.lookup_cost, Nanos{0}, seconds(1));
}

// -- tenant/ -----------------------------------------------------------------

template <class V>
void visit_fields(ThrasherConfig& c, V&& v) {
  v.field("touch_cost", c.touch_cost, Nanos{0}, seconds(1));
  v.field("working_set_buffers", c.working_set_buffers, std::int64_t{1},
          std::int64_t{1} << 32);
  v.field("stride", c.stride, std::int64_t{1}, std::int64_t{1} << 24);
}

}  // namespace ceio

namespace ceio::tenant {

template <class V>
void visit_fields(TenantConfig& c, V&& v) {
  v.field("enabled", c.enabled);
  v.field("app", c.app);
  v.field("flows", c.flows, 1, 1 << 16);
  v.field("offered_rate", c.offered_rate, kMinRate, kMaxRate);
  v.field("packet_size", c.packet_size, Bytes{1}, Bytes{64 * kKiB});
  v.field("chunk_kb", c.chunk_kb, std::int64_t{1}, std::int64_t{1} << 30);
  v.field("poisson", c.poisson);
  v.field("ddio_ways", c.ddio_ways, 0, 256);
  v.field("priority", c.priority, 0.0, 1e6);
}

template <class V>
void visit_fields(TenantSetConfig& c, V&& v) {
  v.field("enabled", c.enabled);
  v.nested("lc", c.lc);
  v.nested("bw", c.bw);
  v.nested("ant", c.ant);
}

template <class V>
void visit_fields(WayControllerConfig& c, V&& v) {
  v.field("policy", c.policy);
  v.field("interval", c.interval, Nanos{1}, seconds(1));
  v.field("min_ways", c.min_ways, 0, 256);
  v.field("react_threshold", c.react_threshold, 0.0, 1e12);
  v.field("donor_max_pressure", c.donor_max_pressure, 0.0, 1e12);
  v.field("grant_hold_ticks", c.grant_hold_ticks, 0, 1 << 24);
  v.field("backlog_weight", c.backlog_weight, 0.0, 1e6);
}

}  // namespace ceio::tenant

// -- policy/ -----------------------------------------------------------------

namespace ceio::policy {

template <class V>
void visit_fields(PolicyConfig& c, V&& v) {
  v.field("governor", c.governor);
  v.field("interval", c.interval, Nanos{1}, seconds(1));
  v.field("evict_threshold", c.evict_threshold, 0.0, 1e12);
  v.field("backlog_threshold", c.backlog_threshold, 0.0, 1e12);
  v.field("starvation_threshold", c.starvation_threshold, 0.0, 1e12);
  v.field("escalate_ticks", c.escalate_ticks, 1, 1 << 24);
  v.field("relax_ticks", c.relax_ticks, 1, 1 << 24);
  v.field("grant_hold_ticks", c.grant_hold_ticks, std::int64_t{0},
          std::int64_t{1} << 24);
  v.field("watch_credit_scale", c.watch_credit_scale, 0.0, 16.0);
  v.field("squeeze_credit_scale", c.squeeze_credit_scale, 0.0, 16.0);
  v.field("squeeze_bypass_slow", c.squeeze_bypass_slow);
  v.field("squeeze_landed_scale", c.squeeze_landed_scale, 0.0, 16.0);
  v.field("static_credit_scale", c.static_credit_scale, 0.0, 16.0);
  v.field("static_bypass_slow", c.static_bypass_slow);
}

}  // namespace ceio::policy

namespace ceio {

// -- telemetry/ --------------------------------------------------------------

template <class V>
void visit_fields(TelemetryConfig& c, V&& v) {
  v.field("trace_capacity", c.trace_capacity, std::size_t{1}, std::size_t{1} << 28);
  v.field("sample_interval", c.sample_interval, Nanos{1}, seconds(10));
  v.field("path_sample_every", c.path_sample_every);
  v.field("path_max_records", c.path_max_records, std::size_t{0}, std::size_t{1} << 28);
}

// -- sim/ --------------------------------------------------------------------

template <class V>
void visit_fields(SimConfig& c, V&& v) {
  v.field("domains", c.domains, 1, 1024);
  v.field("shards", c.shards, 1, 1024);
}

// -- iopath/ -----------------------------------------------------------------

template <class V>
void visit_fields(TestbedConfig& c, V&& v) {
  v.field("system", c.system);
  v.nested("llc", c.llc);
  v.nested("dram", c.dram);
  v.nested("iio", c.iio);
  v.nested("mc", c.mc);
  v.nested("pcie", c.pcie);
  v.nested("dma", c.dma);
  v.nested("nic", c.nic);
  v.nested("nic_mem", c.nic_mem);
  v.nested("rmt", c.rmt);
  v.nested("net", c.net);
  v.nested("dctcp", c.dctcp);
  v.nested("cpu", c.cpu);
  v.nested("legacy", c.legacy);
  v.nested("hostcc", c.hostcc);
  v.nested("shring", c.shring);
  v.nested("ceio", c.ceio);
  v.field("legacy_pool_buffers", c.legacy_pool_buffers, std::size_t{1}, std::size_t{1} << 28);
  v.field("shring_pool_entries", c.shring_pool_entries, std::size_t{1}, std::size_t{1} << 28);
  v.field("ceio_auto_credits", c.ceio_auto_credits);
  v.nested("policy", c.policy);
  v.nested("telemetry", c.telemetry);
  v.nested("sim", c.sim);
  v.field("seed", c.seed);
}

}  // namespace ceio

namespace ceio::config {

/// Calls `f(name, DefaultInstance{})` once per registered config struct (in
/// schema order). Tests use this to round-trip every struct; keep it in sync
/// with the visit_fields list above.
template <class F>
void for_each_registered_config(F&& f) {
  f("LlcConfig", LlcConfig{});
  f("DramConfig", DramConfig{});
  f("IioConfig", IioConfig{});
  f("MemoryControllerConfig", MemoryControllerConfig{});
  f("CpuCoreConfig", CpuCoreConfig{});
  f("TlpConfig", TlpConfig{});
  f("PcieLinkConfig", PcieLinkConfig{});
  f("DmaEngineConfig", DmaEngineConfig{});
  f("NicConfig", NicConfig{});
  f("NicMemoryConfig", NicMemoryConfig{});
  f("RmtConfig", RmtConfig{});
  f("NetworkLinkConfig", NetworkLinkConfig{});
  f("DctcpConfig", DctcpConfig{});
  f("FlowConfig", FlowConfig{});
  f("LegacyConfig", LegacyConfig{});
  f("HostccConfig", HostccConfig{});
  f("ShringConfig", ShringConfig{});
  f("CeioConfig", CeioConfig{});
  f("KvConfig", KvConfig{});
  f("LineFsConfig", LineFsConfig{});
  f("EchoConfig", EchoConfig{});
  f("VxlanConfig", VxlanConfig{});
  f("TelemetryConfig", TelemetryConfig{});
  f("SimConfig", SimConfig{});
  f("ThrasherConfig", ThrasherConfig{});
  f("TenantConfig", tenant::TenantConfig{});
  f("TenantSetConfig", tenant::TenantSetConfig{});
  f("WayControllerConfig", tenant::WayControllerConfig{});
  f("PolicyConfig", policy::PolicyConfig{});
  f("TestbedConfig", TestbedConfig{});
}

/// Names of every registered struct, in schema order (lint/tests/tools).
std::vector<std::string> registered_struct_names();

}  // namespace ceio::config

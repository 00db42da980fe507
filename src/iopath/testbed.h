// Testbed: one receiver host (LLC/DRAM/IIO/PCIe/cores), one NIC (RMT +
// on-NIC memory), one 200 Gbps ingress link, a set of flows with DCTCP
// sources, and a selected I/O datapath (legacy / HostCC / ShRing / CEIO).
//
// This mirrors the paper's two-server setup with the sender collapsed into
// the flow sources. Benches, tests and examples all build experiments on
// this harness: add flows, run simulated time, read per-flow and host-level
// reports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/application.h"
#include "baselines/hostcc.h"
#include "baselines/legacy.h"
#include "baselines/shring.h"
#include "ceio/ceio_datapath.h"
#include "common/flow_table.h"
#include "common/rng.h"
#include "host/cpu_core.h"
#include "iopath/datapath.h"
#include "net/flow_source.h"
#include "net/network_link.h"
#include "policy/governor.h"
#include "sim/sim_config.h"
#include "telemetry/telemetry.h"

namespace ceio {

class ModelAuditor;

enum class SystemKind { kLegacy, kHostcc, kShring, kCeio };

const char* to_string(SystemKind kind);

/// Memory-technology ablation axis (`mem.*` keys): model the on-NIC elastic
/// memory as CPU-attached CXL SRAM instead of BlueField-class onboard DRAM
/// (paper §6.4 future work). When enabled, the testbed overrides the
/// NicMemoryConfig latencies before constructing the model — no internal
/// PCIe switch traversal, SRAM-class access, hardware-pipeline request
/// handling — so it composes with every scenario and sweep.
struct CxlMemConfig {
  bool cxl_enabled = false;
  /// CPU-attached SRAM access (replaces the onboard-DRAM access latency).
  Nanos cxl_access_latency{40};
  /// CXL fabric hop (replaces the internal PCIe switch traversal).
  Nanos cxl_switch_latency{0};
  /// Hardware-pipeline descriptor handling (replaces wimpy-core overhead).
  Nanos cxl_request_overhead{5};
};

struct TestbedConfig {
  SystemKind system = SystemKind::kCeio;

  LlcConfig llc{12 * kMiB, 12, /*ddio_ways=*/6, 2 * kKiB};
  DramConfig dram;
  IioConfig iio;
  MemoryControllerConfig mc;
  PcieLinkConfig pcie;
  DmaEngineConfig dma;
  NicConfig nic;
  NicMemoryConfig nic_mem;
  RmtConfig rmt;
  NetworkLinkConfig net;
  DctcpConfig dctcp;
  CpuCoreConfig cpu;

  LegacyConfig legacy;
  HostccConfig hostcc;
  ShringConfig shring;
  CeioConfig ceio;

  /// Legacy/HostCC buffer abundance (no LLC management).
  std::size_t legacy_pool_buffers = 32'768;
  /// ShRing shared-RQ capacity in entries (the paper limits the shared ring
  /// to 4096 RX entries; note this slightly exceeds the 6 MiB DDIO partition
  /// at 2 KiB buffers, which is why ShRing still sees residual misses).
  std::size_t shring_pool_entries = 4096;
  /// Derive CEIO C_total from the LLC config (Eq. 1) minus a poll-lag
  /// margin; when false, ceio.total_credits is used as given.
  bool ceio_auto_credits = true;

  /// Memory-technology ablation (CXL-attached slow-path memory).
  CxlMemConfig mem;

  /// Online datapath governor (`policy.*` keys). With the default kOff the
  /// testbed schedules zero governor events — bit-identical to a build that
  /// never had a policy layer.
  policy::PolicyConfig policy;

  /// Telemetry subsystem parameters (only consulted by enable_telemetry).
  TelemetryConfig telemetry;

  /// Simulation partitioning (`sim.domains` > 1 runs that many independent
  /// receiver slices; see src/harness/sharded_testbed.h). A plain Testbed
  /// ignores everything here: it is one slice.
  SimConfig sim;

  std::uint64_t seed = 1;
};

/// The Eq.-1 auto-credit derivation used by the Testbed constructor when
/// `ceio_auto_credits` is set, factored out so multi-tenant assemblies can
/// size each tenant's CEIO instance from its own DDIO slice capacity.
CeioConfig derive_ceio_auto_credits(CeioConfig cfg, std::size_t ddio_capacity);

/// Per-flow measurement summary over the last measurement window.
struct FlowReport {
  FlowId id = 0;
  FlowKind kind = FlowKind::kCpuInvolved;
  double mpps = 0.0;      // delivered packets
  double gbps = 0.0;          // delivered goodput, display-only (lint: allow-raw-unit-param)
  double message_gbps = 0.0;  // committed-message goodput, display-only (lint: allow-raw-unit-param)
  Nanos p50{}, p99{}, p999{};  // message latency
  std::int64_t messages = 0;
  std::int64_t drops = 0;
};

/// Kind-filtered sums over `reports` (every flow when `kind` is nullopt),
/// added in report order.
double aggregate_mpps(const std::vector<FlowReport>& reports,
                      std::optional<FlowKind> kind = std::nullopt);
double aggregate_gbps(const std::vector<FlowReport>& reports,
                      std::optional<FlowKind> kind = std::nullopt);
double aggregate_message_gbps(const std::vector<FlowReport>& reports,
                              std::optional<FlowKind> kind = std::nullopt);

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // ---- Applications (owned by the testbed) ----
  class KvStore& make_kv_store();
  class LineFs& make_linefs();
  class EchoApp& make_echo();
  class RawRdmaApp& make_raw_rdma();
  class VxlanApp& make_vxlan();
  class ThrasherApp& make_thrasher();

  // ---- Datapath construction ----
  struct HostDatapath {
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<IoDatapath> datapath;
    CeioDatapath* ceio = nullptr;  // the datapath, when it is CEIO
  };
  /// The one SystemKind switch: a host buffer pool (ids from `pool_base`)
  /// and a config().system datapath over this testbed's models. CEIO's
  /// Eq.-1 auto-credits derive from `ddio_capacity` buffers. The
  /// constructor builds the testbed's own (base 1, the whole DDIO
  /// partition); a TenantAssembly builds one per tenant.
  HostDatapath build_datapath(BufferId pool_base, std::size_t ddio_capacity);

  /// Swaps in a replacement datapath (e.g. a TenantDemux fronting per-tenant
  /// datapaths). Must be called before any flow exists; throws otherwise.
  /// After the swap ceio() returns nullptr — per-tenant CEIO instances are
  /// reached through the installed demux — and, when auditing is enabled,
  /// the invariant pack is re-registered against the new datapath.
  void install_datapath(std::unique_ptr<IoDatapath> datapath);

  // ---- Flows ----
  /// Both halves of a flow on this testbed: its FlowSource on link(), then a
  /// pinned core and the FlowRuntime registered with the datapath, reporting
  /// to that source. Emission starts at config.start_time (scheduled). The
  /// source draws from an RNG stream keyed on (`stream_seed`, flow id), so
  /// arrival randomness is a pure function of the flow's identity: a sharded
  /// slice passes the run seed and its flows send exactly what they send in
  /// a single-domain run. The two-argument form keys on config().seed.
  FlowSource& add_flow(const FlowConfig& config, Application& app);
  FlowSource& add_flow(const FlowConfig& config, Application& app, std::uint64_t stream_seed);
  void remove_flow(FlowId id);
  FlowSource* source(FlowId id);
  CpuCore* core(FlowId id);
  std::vector<FlowId> flow_ids() const;

  // ---- Time ----
  void run_for(Nanos duration);
  void run_until(Nanos deadline);
  Nanos now() const;

  // ---- Invariant auditing (src/audit/) ----
  /// Registers the standard cross-layer invariant pack against this
  /// testbed's models and starts periodic read-only sweeps every
  /// `interval`; new violations are logged at error level. Idempotent.
  /// Always compiled; the constructor calls it automatically when the
  /// tree is built with -DCEIO_AUDIT=ON (the Debug default).
  ModelAuditor& enable_audit(Nanos interval = micros(100));
  /// Non-null once enable_audit has run.
  ModelAuditor* auditor() { return auditor_.get(); }

  // ---- Telemetry (src/telemetry/) ----
  /// Constructs the telemetry facade (idempotent), attaches it to every
  /// model layer, registers all gauges, and enables the trace hooks.
  /// Deliberately NOT called from the constructor, in any build type:
  /// simulation results must stay bit-identical until the caller opts in.
  /// Periodic gauge sampling starts only when the caller additionally
  /// invokes telemetry()->start_sampling().
  Telemetry& enable_telemetry();
  /// Non-null once enable_telemetry has run.
  Telemetry* telemetry() { return telemetry_.get(); }

  // ---- Measurement ----
  /// Clears per-flow meters and host-level stats; reports cover the window
  /// from this call to `now()`.
  void reset_measurement();
  /// FlowReport{} for an unknown flow.
  FlowReport report(FlowId id) const;
  std::vector<FlowReport> all_reports() const;
  /// Aggregate delivered Mpps over flows of `kind` (or all when nullopt).
  double aggregate_mpps(std::optional<FlowKind> kind = std::nullopt) const;
  double aggregate_gbps(std::optional<FlowKind> kind = std::nullopt) const;
  /// Committed-message goodput (what a DFS reports as write throughput).
  double aggregate_message_gbps(std::optional<FlowKind> kind = std::nullopt) const;
  double llc_miss_rate() const { return llc_->stats().miss_rate(); }

  /// One point of a sampled time series (the paper's figures plot these).
  struct Sample {
    Nanos t{0};
    double involved_mpps = 0.0;
    double bypass_gbps = 0.0;  // display metric (lint: allow-raw-unit-param)
    double miss_rate = 0.0;
  };
  /// Runs for `duration`, sampling aggregate throughput and the miss rate
  /// every `interval` (each sample covers its own window: meters and cache
  /// stats are reset per interval).
  std::vector<Sample> run_sampling(Nanos duration, Nanos interval);

  // ---- Substrate access (white-box tests, benches) ----
  EventScheduler& sched() { return sched_; }
  /// The DCTCP window rollovers of every source on sched() (config().dctcp).
  DctcpWindowStream& windows() { return windows_; }
  Rng& rng() { return rng_; }
  LlcModel& llc() { return *llc_; }
  DramModel& dram() { return *dram_; }
  IioBuffer& iio() { return *iio_; }
  MemoryController& memory_controller() { return *mc_; }
  PcieLink& pcie() { return *pcie_; }
  DmaEngine& dma() { return *dma_; }
  NicMemory& nic_memory() { return *nic_mem_; }
  RmtEngine& rmt() { return *rmt_; }
  Nic& nic() { return *nic_; }
  NetworkLink& link() { return *link_; }
  BufferPool& host_pool() { return *host_.pool; }
  IoDatapath& datapath() { return *host_.datapath; }
  /// Non-null only when system == kCeio.
  CeioDatapath* ceio() { return host_.ceio; }
  /// Non-null only when config.policy.governor != kOff.
  policy::DatapathGovernor* governor() { return governor_.get(); }
  const TestbedConfig& config() const { return config_; }

 private:
  struct FlowRecord {
    std::unique_ptr<CpuCore> core;
    std::unique_ptr<FlowSource> source;
  };

  TestbedConfig config_;
  Rng rng_;
  EventScheduler sched_;
  DctcpWindowStream windows_;

  std::unique_ptr<LlcModel> llc_;
  std::unique_ptr<DramModel> dram_;
  std::unique_ptr<IioBuffer> iio_;
  std::unique_ptr<MemoryController> mc_;
  std::unique_ptr<PcieLink> pcie_;
  std::unique_ptr<DmaEngine> dma_;
  std::unique_ptr<NicMemory> nic_mem_;
  std::unique_ptr<RmtEngine> rmt_;
  std::unique_ptr<Nic> nic_;
  std::unique_ptr<NetworkLink> link_;
  HostDatapath host_;  // install_datapath swaps the datapath, keeps the pool

  std::vector<std::unique_ptr<Application>> apps_;
  // Dense slab keyed by flow id: the drop handler probes this per dropped
  // packet, and flow_ids() / the measurement-reset sweep rely on the table's
  // id-ordered iteration for deterministic report order.
  FlowTable<FlowRecord> flows_;
  // Removed flows are parked, not destroyed: scheduled events (CPU work
  // completions, feedback timers) may still reference their core/source.
  std::vector<FlowRecord> retired_flows_;
  Nanos measure_start_{0};

  // Online governor (src/policy/): a periodic decision tick over this
  // testbed's own gauges. All gauges are domain-local, so per-domain
  // governors in sharded runs decide bitwise-identically at any shard count.
  void governor_tick();
  policy::GovernorSample sample_governor_gauges() const;
  std::unique_ptr<policy::DatapathGovernor> governor_;
  EventHandle governor_timer_;
  /// Configured landing windows (post auto-credit derivation) — the base the
  /// governor's landed_cap_scale multiplies.
  std::size_t governor_base_involved_cap_ = 0;
  std::size_t governor_base_bypass_cap_ = 0;

  void run_audit_sweep();
  void schedule_audit_sweep();
  std::unique_ptr<ModelAuditor> auditor_;
  std::unique_ptr<Telemetry> telemetry_;
  Nanos audit_interval_{0};
  bool audit_sweep_scheduled_ = false;
  std::size_t audit_logged_ = 0;
};

// The application-name table (kv | echo | vxlan | linefs | rdma | thrasher):
// workload and tenant applications alike are named and made through it.
bool is_known_app(const std::string& name);
/// True for the CPU-bypass applications (linefs, rdma).
bool is_bypass_app(const std::string& name);
/// Creates the named application on `bed`; nullptr for an unknown name.
Application* make_app(Testbed& bed, const std::string& name);

}  // namespace ceio

// Paper scenario presets. Registered explicitly from
// ScenarioRegistry::instance() (not via static registrars: this TU lives in
// a static library, where an unreferenced object file — and its
// initializers — would be dropped by the linker). These are the base specs
// the figure/table binaries and the check.sh migration-safety stage start
// from; `ceio_sim --list-scenarios` enumerates them and `--scenario NAME`
// loads one.
#include "harness/scenario_registry.h"

namespace ceio::harness {
namespace {

/// Common base: the paper's receiver (defaults) with `system` selected.
ExperimentSpec base_spec(SystemKind system) {
  ExperimentSpec s;
  s.testbed.system = system;
  return s;
}

/// Base for the multi-tenant co-location scenarios: CEIO with the tenant
/// roster enabled on a 3 MiB LLC share. Co-located tenants see a fraction of
/// the socket's cache (SNC slice plus the app ways the other cores burn),
/// and the smaller share is what puts neighbor churn on the same timescale
/// as the latency-critical tenant's queueing delays — on the full 12 MiB the
/// shared pool takes hundreds of microseconds to cycle and no realistic
/// antagonist can catch an unread line.
ExperimentSpec multitenant_spec() {
  ExperimentSpec s = base_spec(SystemKind::kCeio);
  s.testbed.llc.total_bytes = 3 * kMiB;
  s.tenant.enabled = true;
  return s;
}

}  // namespace

void register_paper_scenarios(ScenarioRegistry& registry) {
  // Figure 4 / 10's "expected performance" definition: one CPU-involved KV
  // flow on ShRing with ample LLC (warmup 2 ms, measure 4 ms).
  {
    ExperimentSpec s = base_spec(SystemKind::kShring);
    s.workload.flows = 1;
    s.measure = millis(4);
    registry.add({"fig04-reference",
                  "single-core expected-performance reference (Fig. 4)", s});
  }
  // Figure 9's static grid base point: 8 eRPC-KV flows at 512 B on CEIO.
  registry.add({"fig09-erpc-kv", "8 eRPC-KV flows, 512 B packets, CEIO (Fig. 9 base point)",
                base_spec(SystemKind::kCeio)});
  // The telemetry-identity scenario check.sh has always used: CEIO, KV,
  // 8 flows, 25 G/flow, 2 ms measure.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.measure = millis(2);
    registry.add({"ceio-kv-short", "CEIO + KV smoke scenario (check.sh identity stages)", s});
  }
  // Table 2's echo-latency shape: 4 closed-loop echo flows.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.workload.app = "echo";
    s.workload.flows = 4;
    s.workload.offered_rate = gbps(50.0);
    s.workload.closed_loop = 1024;
    registry.add({"table2-echo", "4 closed-loop echo flows at 50 G (Table 2 shape)", s});
  }
  // Figure 9c's bypass workload: LineFS chunk writes over 2 KiB packets.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.workload.app = "linefs";
    s.workload.flows = 2;
    registry.add({"fig09-linefs", "2 LineFS bypass flows writing 1 MiB chunks (Fig. 9c shape)",
                  s});
  }
  // Legacy DDIO under the same load — the motivating contrast (Fig. 4).
  registry.add({"legacy-kv", "8 eRPC-KV flows on legacy DDIO (motivating baseline)",
                base_spec(SystemKind::kLegacy)});
  // Sharded counterpart of ceio-kv-short: same workload split across 4
  // event domains (the check.sh shards=4-vs-1 byte-identity gate runs it).
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.testbed.sim.domains = 4;
    s.measure = millis(2);
    registry.add({"sharded-kv-short",
                  "CEIO + KV across 4 event domains (check.sh shards gate)", s});
  }
  // Multi-tenant co-location: latency-critical KV + LineFS streamer +
  // cache-thrasher antagonist sharing one LLC. The static preset pins the
  // boot-time way split; the reactive preset runs the IOCA-style controller
  // that migrates ways toward the tenant under premature-eviction pressure.
  {
    registry.add({"multitenant-static",
                  "lc/bw/ant tenants on CEIO, static DDIO way partition",
                  multitenant_spec()});
  }
  {
    ExperimentSpec s = multitenant_spec();
    s.controller.policy = tenant::PartitionPolicy::kReactive;
    registry.add({"multitenant-reactive",
                  "lc/bw/ant tenants on CEIO, reactive way-partition controller", s});
  }
  // Short multi-tenant smoke for check.sh's golden stage: same shape as
  // multitenant-reactive with a 2 ms measure window.
  {
    ExperimentSpec s = multitenant_spec();
    s.controller.policy = tenant::PartitionPolicy::kReactive;
    s.measure = millis(2);
    registry.add({"multitenant-short",
                  "multi-tenant smoke scenario (check.sh golden stage)", s});
  }
  // §6.4 future-work ablation: CEIO's slow path on CXL-attached SRAM. The
  // elastic buffer's `nic_mem.*` latencies become CPU-attached SRAM access,
  // a CXL fabric hop in place of the internal PCIe switch traversal, and
  // hardware-pipeline descriptor handling in place of the wimpy NIC cores.
  // bench/ablation_cxl takes its `nic_mem` from this preset.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.testbed.nic_mem.access_latency = Nanos{40};
    s.testbed.nic_mem.switch_latency = Nanos{0};
    s.testbed.nic_mem.per_request_overhead = Nanos{5};
    s.measure = millis(2);
    registry.add({"cxl-slowpath",
                  "CEIO with CXL-attached SRAM slow-path memory (paper 6.4)", s});
  }
  // Governed counterpart of ceio-kv-short: the online datapath governor in
  // reactive mode (policy.* keys). The check.sh shards gate also runs this
  // at sim.domains=4 to prove governor decisions are sharding-invariant.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.testbed.policy.governor = policy::GovernorMode::kReactive;
    s.measure = millis(2);
    registry.add({"governed-kv-short",
                  "CEIO + KV with the reactive datapath governor", s});
  }
  // Figure 12's flow-scaling question pushed to a million flows: 2^20 echo
  // flows over 8 event domains (one port/NUMA slice each), ~1.28 Mbps per
  // flow so every per-domain 200 G link runs at ~84% load. Poisson
  // interarrivals matter at this scale: the mean packet gap (3.2 ms)
  // exceeds the measure window, so paced flows would all fire at t=0 and
  // then fall silent — exponential gaps spread the load across the run the
  // way a million independent users would. Tiny fast rings and a bounded
  // poll scan keep per-flow state and poll cost sane. Run it with
  // `ceio_sim --scenario flowscale-1m --shards N`.
  {
    ExperimentSpec s = base_spec(SystemKind::kCeio);
    s.testbed.sim.domains = 8;
    s.testbed.ceio.fast_ring_entries = 16;
    s.testbed.ceio.poll_scan_limit = 4096;
    s.workload.app = "echo";
    s.workload.flows = 1 << 20;
    s.workload.offered_rate = gbps(0.00128);
    s.workload.poisson = true;
    s.warmup = micros(500);
    s.measure = millis(2);
    registry.add({"flowscale-1m",
                  "1,048,576 echo flows over 8 sharded domains (Fig. 12 at scale)", s});
  }
}

}  // namespace ceio::harness

// TenantAssembly: turns a plain Testbed into a multi-tenant host.
//
// Per tenant, the assembly takes a host buffer pool and a datapath of the
// selected system from Testbed::build_datapath and mounts the datapaths
// behind a TenantDemux; it carves the shared LLC's DDIO ways into
// per-tenant slices and, under the reactive policy, runs the
// WayPartitionController on the testbed's event scheduler. Flow-id blocks
// are contiguous per tenant, so the demux, the harness and the sharded
// runner all agree on ownership by id alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iopath/testbed.h"
#include "tenant/tenant_config.h"
#include "tenant/tenant_demux.h"
#include "tenant/way_partition.h"

namespace ceio {
class ModelAuditor;
}

namespace ceio::tenant {

/// One tenant's resolved place in the run: its config, contiguous flow-id
/// block [first_flow, last_flow], and boot-time DDIO way share.
struct TenantRosterEntry {
  std::string name;  // "lc" | "bw" | "ant"
  TenantConfig cfg;
  FlowId first_flow = 0;
  FlowId last_flow = 0;
  int ways = 0;
};

/// Resolves the enabled tenants (lc, bw, ant order), assigns contiguous
/// flow blocks from id 1, and records each tenant's configured exclusive
/// DDIO way share; ways left unclaimed stay in the shared pool that every
/// tenant's mask overlaps. Throws when the configured shares oversubscribe
/// the partition or no tenant is enabled.
std::vector<TenantRosterEntry> tenant_roster(const TenantSetConfig& set, int ddio_ways);

class TenantAssembly {
 public:
  /// Builds pools/datapaths/demux, installs the demux into `bed` (which must
  /// have no flows yet), partitions the LLC, creates the per-tenant
  /// applications (roster order — part of the bit-reproducibility contract),
  /// and arms the controller tick under the reactive policy. When `bed` is
  /// audited, also binds the tenant LLC invariants (occupancy sum, way
  /// bounds) and each tenant's CEIO invariants to its auditor. Throws
  /// std::invalid_argument when `bed` runs the datapath governor: it drives
  /// the testbed's datapath, which the demux replaces, so it would tick
  /// without reaching any tenant's datapath.
  TenantAssembly(Testbed& bed, const TenantSetConfig& set, const WayControllerConfig& ctl);

  const std::vector<TenantRosterEntry>& roster() const { return roster_; }

  Application& app_of(std::size_t tenant) { return *apps_[tenant]; }
  /// The application serving `flow` (flows map to tenants by id block).
  Application& app_of_flow(FlowId flow);

  /// Per-tenant CEIO instance (nullptr for non-CEIO systems).
  CeioDatapath* ceio_of(std::size_t tenant) { return ceio_[tenant]; }

  /// Live gauge snapshot, one sample per tenant (controller input).
  std::vector<TenantGaugeSample> sample_gauges() const;

  /// Registers "tenant.<name>.*" gauge subtrees + controller gauges.
  void register_metrics(MetricRegistry& registry);

  /// Fills the LLC/CEIO columns of a report for tenant `t` (the harness
  /// fills the flow-derived columns).
  void fill_llc_fields(TenantReport& report, std::size_t t) const;

  std::int64_t repartitions() const {
    return controller_ ? controller_->repartitions() : 0;
  }
  WayPartitionController* controller() { return controller_.get(); }

 private:
  /// Packets tenant `t` has waiting in its rings and CEIO slow backlogs
  /// (the controller's backlog input and the `ring_backlog` gauge).
  std::int64_t ring_backlog(std::size_t t) const;
  void register_audit(ModelAuditor& auditor);
  void arm_tick();
  void tick();

  Testbed& bed_;
  WayControllerConfig ctl_cfg_;
  std::vector<TenantRosterEntry> roster_;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  TenantDemux* demux_ = nullptr;          // owned by the testbed after install
  std::vector<CeioDatapath*> ceio_;       // owned by the demux
  std::vector<Application*> apps_;        // owned by the testbed
  std::unique_ptr<WayPartitionController> controller_;
};

}  // namespace ceio::tenant

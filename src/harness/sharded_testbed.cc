#include "harness/sharded_testbed.h"

#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "iopath/testbed.h"

namespace ceio::harness {

// One event domain: a single-domain Testbed, its application (or tenant
// assembly) and its flows. Nothing here is shared with another domain.
class DomainSlice final : public ShardDomain {
 public:
  DomainSlice(const ExperimentSpec& spec, int id) {
    TestbedConfig cfg = spec.testbed;
    cfg.seed = derive_seed(spec.testbed.seed, static_cast<std::uint64_t>(id));
    bed_ = std::make_unique<Testbed>(std::move(cfg));
    if (spec.tenant.enabled) {
      // Every slice mounts the full tenant assembly (pools, per-tenant
      // datapaths, way partition, domain-local controller) even though only
      // a subset of each tenant's flows lands here: construction order is
      // part of the per-domain RNG contract, and the demux needs the whole
      // flow-id map to route any block member.
      assembly_ = std::make_unique<tenant::TenantAssembly>(*bed_, spec.tenant, spec.controller);
    } else {
      app_ = make_app(*bed_, spec.workload.app);
    }
  }

  void run_phase(Nanos stop, bool /*at_epoch_end*/) override { bed_->run_until(stop); }

  /// The whole flow on this slice's Testbed, its arrival stream keyed on
  /// `run_seed` like every single-domain source.
  void add_flow(const FlowConfig& fc, std::uint64_t run_seed) {
    bed_->add_flow(fc, assembly_ ? assembly_->app_of_flow(fc.id) : *app_, run_seed);
  }

  Testbed& bed() { return *bed_; }
  tenant::TenantAssembly* assembly() { return assembly_.get(); }

 private:
  std::unique_ptr<Testbed> bed_;
  Application* app_ = nullptr;                       // single-tenant mode
  std::unique_ptr<tenant::TenantAssembly> assembly_;  // tenant mode
};

ShardedTestbed::ShardedTestbed(const ExperimentSpec& spec) {
  const int P = spec.testbed.sim.domains;
  if (P < 2) {
    throw std::invalid_argument("ShardedTestbed requires sim.domains >= 2");
  }
  if (!spec.tenant.enabled && !is_known_app(spec.workload.app)) {
    throw std::invalid_argument("unknown app '" + spec.workload.app + "'");
  }
  slices_.reserve(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) slices_.push_back(std::make_unique<DomainSlice>(spec, d));

  // Flows, in id order (the canonical runner's construction contract).
  for_each_flow(spec, [this, P, &spec](const FlowConfig& fc) {
    slices_[(fc.id - 1) % static_cast<FlowId>(P)]->add_flow(fc, spec.testbed.seed);
    ++flows_;
  });

  std::vector<ShardDomain*> domains;
  domains.reserve(slices_.size());
  for (auto& s : slices_) domains.push_back(s.get());
  coordinator_ = std::make_unique<ShardCoordinator>(
      std::move(domains), spec.warmup + spec.measure, spec.testbed.sim.shards);
}

ShardedTestbed::~ShardedTestbed() = default;

void ShardedTestbed::run_until(Nanos deadline) { coordinator_->run_until(deadline); }

Nanos ShardedTestbed::now() const { return coordinator_->now(); }

int ShardedTestbed::shards() const { return coordinator_->shards(); }

Nanos ShardedTestbed::lookahead() const { return coordinator_->lookahead(); }

std::uint64_t ShardedTestbed::epochs_completed() const {
  return coordinator_->epochs_completed();
}

Testbed& ShardedTestbed::bed(int domain) {
  return slices_[static_cast<std::size_t>(domain)]->bed();
}

FlowSource* ShardedTestbed::source(FlowId id) {
  if (id == 0 || id > flows_) return nullptr;
  return slices_[(id - 1) % slices_.size()]->bed().source(id);
}

std::uint64_t ShardedTestbed::mailbox_spills() const { return 0; }

void ShardedTestbed::reset_measurement() {
  for (auto& s : slices_) s->bed().reset_measurement();
}

RunResult ShardedTestbed::collect() const {
  std::vector<FlowReport> flows;
  flows.reserve(flows_);
  for (FlowId id = 1; id <= flows_; ++id) {
    flows.push_back(slices_[(id - 1) % slices_.size()]->bed().report(id));
  }
  std::vector<Testbed*> beds;
  std::vector<tenant::TenantAssembly*> assemblies;
  for (const auto& s : slices_) {
    beds.push_back(&s->bed());
    if (s->assembly() != nullptr) assemblies.push_back(s->assembly());
  }
  return collect_domains(std::move(flows), beds, assemblies);
}

RunResult run_sharded_experiment(const ExperimentSpec& spec) {
  ShardedTestbed bed(spec);
  bed.run_until(spec.warmup);
  bed.reset_measurement();
  bed.run_until(spec.warmup + spec.measure);
  return bed.collect();
}

}  // namespace ceio::harness

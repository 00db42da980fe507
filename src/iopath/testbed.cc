#include "iopath/testbed.h"

#include <algorithm>
#include <stdexcept>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/raw_rdma.h"
#include "apps/thrasher.h"
#include "apps/vxlan.h"
#include "audit/invariants.h"
#include "audit/model_auditor.h"
#include "common/logging.h"

namespace ceio {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kLegacy:
      return "Baseline";
    case SystemKind::kHostcc:
      return "HostCC";
    case SystemKind::kShring:
      return "ShRing";
    case SystemKind::kCeio:
      return "CEIO";
  }
  return "?";
}

CeioConfig derive_ceio_auto_credits(CeioConfig cfg, std::size_t ddio_capacity) {
  // Scale the landed-drain cap with the partition: a 2-way DDIO
  // configuration cannot afford a 256-buffer landing window.
  cfg.landed_cap =
      std::min<std::size_t>(cfg.landed_cap, std::max<std::size_t>(ddio_capacity / 8, 32));
  // Eq. 1 with a margin covering the controller's poll lag, the in-flight
  // drain window, and landed-but-unconsumed slow packets — all of which
  // occupy DDIO ways without holding a credit.
  const auto margin = static_cast<std::int64_t>(64 + cfg.landed_cap + cfg.drain_window);
  cfg.total_credits =
      std::max<std::int64_t>(static_cast<std::int64_t>(ddio_capacity) - margin, 64);
  return cfg;
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), rng_(config_.seed), windows_(sched_, config_.dctcp) {
  if (config_.policy.governor != policy::GovernorMode::kOff &&
      config_.system != SystemKind::kCeio) {
    // Every knob the governor turns is CEIO's: on any other system it would
    // tick and change nothing. Key spellings, in SystemKind order.
    constexpr const char* kSystemKeys[] = {"legacy", "hostcc", "shring", "ceio"};
    throw std::invalid_argument(
        std::string("policy.governor=") + policy::to_string(config_.policy.governor) +
        " cannot drive system=" + kSystemKeys[static_cast<int>(config_.system)] +
        ": its actuators (credit total, landing windows, bypass steering) exist only in "
        "system=ceio");
  }
  llc_ = std::make_unique<LlcModel>(config_.llc);
  dram_ = std::make_unique<DramModel>(config_.dram);
  iio_ = std::make_unique<IioBuffer>(config_.iio);
  mc_ = std::make_unique<MemoryController>(sched_, *llc_, *dram_, *iio_, config_.mc);
  pcie_ = std::make_unique<PcieLink>(config_.pcie);
  dma_ = std::make_unique<DmaEngine>(sched_, *pcie_, *mc_, config_.dma);
  nic_mem_ = std::make_unique<NicMemory>(config_.nic_mem);
  rmt_ = std::make_unique<RmtEngine>(sched_, config_.rmt);
  nic_ = std::make_unique<Nic>(sched_, config_.nic);
  link_ = std::make_unique<NetworkLink>(sched_, *nic_, config_.net);

  const auto ddio_capacity =
      static_cast<std::size_t>(config_.llc.ddio_bytes() / config_.llc.buffer_bytes);
  host_ = build_datapath(1, ddio_capacity);
  nic_->attach(host_.datapath.get());
  link_->set_drop_handler([this](const Packet& pkt) {
    const FlowRecord* record = flows_.find(pkt.flow);
    if (record != nullptr) record->source->notify_dropped(pkt);
  });

  if (config_.policy.governor != policy::GovernorMode::kOff) {
    // The governor rides the event scheduler like the CEIO controller poll.
    // When off (the default) nothing here runs and no event is ever
    // scheduled — the simulation stays bit-identical to a governor-less
    // build.
    governor_ = std::make_unique<policy::DatapathGovernor>(config_.policy);
    governor_timer_ = sched_.schedule_after(config_.policy.interval,
                                            [this]() { governor_tick(); });
  }

#if defined(CEIO_AUDIT) && CEIO_AUDIT
  enable_audit();
#endif
}

Testbed::HostDatapath Testbed::build_datapath(BufferId pool_base, std::size_t ddio_capacity) {
  const Bytes buf = config_.llc.buffer_bytes;
  HostDatapath out;
  switch (config_.system) {
    case SystemKind::kLegacy:
      out.pool = std::make_unique<BufferPool>(config_.legacy_pool_buffers, buf, pool_base);
      out.datapath = std::make_unique<LegacyDatapath>(sched_, *dma_, *mc_, *out.pool,
                                                      config_.legacy);
      break;
    case SystemKind::kHostcc:
      out.pool = std::make_unique<BufferPool>(config_.legacy_pool_buffers, buf, pool_base);
      out.datapath = std::make_unique<HostccDatapath>(sched_, *dma_, *mc_, *out.pool, *iio_,
                                                      *dram_, *llc_, config_.hostcc);
      break;
    case SystemKind::kShring:
      out.pool = std::make_unique<BufferPool>(
          std::max<std::size_t>(config_.shring_pool_entries, 64), buf, pool_base);
      out.datapath = std::make_unique<ShringDatapath>(sched_, *dma_, *mc_, *out.pool,
                                                      config_.shring);
      break;
    case SystemKind::kCeio: {
      const CeioConfig ceio_cfg = config_.ceio_auto_credits
                                      ? derive_ceio_auto_credits(config_.ceio, ddio_capacity)
                                      : config_.ceio;
      out.pool = std::make_unique<BufferPool>(
          static_cast<std::size_t>(ceio_cfg.total_credits) * 2 + 1024, buf, pool_base);
      auto ceio = std::make_unique<CeioDatapath>(sched_, *dma_, *mc_, *out.pool, *rmt_,
                                                 *nic_mem_, ceio_cfg);
      out.ceio = ceio.get();
      out.datapath = std::move(ceio);
      break;
    }
  }
  return out;
}

Testbed::~Testbed() {
  // The scheduler may outlive this testbed in some harnesses; a cancelled
  // handle can never fire into freed state.
  sched_.cancel(governor_timer_);
}

policy::GovernorSample Testbed::sample_governor_gauges() const {
  policy::GovernorSample s;
  s.premature_evictions = llc_->stats().premature_evictions;
  std::int64_t ring = 0;
  host_.datapath->for_each_ring(
      [&ring](const RxRing& r) { ring += static_cast<std::int64_t>(r.size()); });
  s.ring_backlog = ring;
  std::int64_t slow = 0;
  flows_.for_each([&](FlowId id, const FlowRecord&) {  // id-ordered walk
    slow += static_cast<std::int64_t>(host_.ceio->slow_backlog(id));
  });
  s.slow_backlog = slow;
  s.credit_starvations = host_.ceio->runtime_stats().credit_switches_to_slow;
  return s;
}

void Testbed::governor_tick() {
  const policy::GovernorDecision d = governor_->decide(sample_governor_gauges());
  if (d.changed) {
    policy::apply_decision(d, *host_.ceio);
    CEIO_T_INSTANT(telemetry_.get(), TraceTrack::kGovernor, to_string(d.tier),
                   sched_.now(), d.credit_scale, 0);
  }
  governor_timer_ = sched_.schedule_after(config_.policy.interval,
                                          [this]() { governor_tick(); });
}

KvStore& Testbed::make_kv_store() {
  apps_.push_back(std::make_unique<KvStore>(rng_));
  return static_cast<KvStore&>(*apps_.back());
}

LineFs& Testbed::make_linefs() {
  apps_.push_back(std::make_unique<LineFs>());
  return static_cast<LineFs&>(*apps_.back());
}

EchoApp& Testbed::make_echo() {
  apps_.push_back(std::make_unique<EchoApp>());
  return static_cast<EchoApp&>(*apps_.back());
}

RawRdmaApp& Testbed::make_raw_rdma() {
  apps_.push_back(std::make_unique<RawRdmaApp>());
  return static_cast<RawRdmaApp&>(*apps_.back());
}

VxlanApp& Testbed::make_vxlan() {
  apps_.push_back(std::make_unique<VxlanApp>());
  return static_cast<VxlanApp&>(*apps_.back());
}

ThrasherApp& Testbed::make_thrasher() {
  apps_.push_back(std::make_unique<ThrasherApp>());
  return static_cast<ThrasherApp&>(*apps_.back());
}

namespace {

struct AppEntry {
  const char* name;
  bool bypass;
  Application& (*make)(Testbed&);
};

constexpr AppEntry kApps[] = {
    {"kv", false, [](Testbed& b) -> Application& { return b.make_kv_store(); }},
    {"echo", false, [](Testbed& b) -> Application& { return b.make_echo(); }},
    {"vxlan", false, [](Testbed& b) -> Application& { return b.make_vxlan(); }},
    {"linefs", true, [](Testbed& b) -> Application& { return b.make_linefs(); }},
    {"rdma", true, [](Testbed& b) -> Application& { return b.make_raw_rdma(); }},
    {"thrasher", false, [](Testbed& b) -> Application& { return b.make_thrasher(); }},
};

const AppEntry* find_app(const std::string& name) {
  for (const AppEntry& e : kApps) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

bool is_known_app(const std::string& name) { return find_app(name) != nullptr; }

bool is_bypass_app(const std::string& name) {
  const AppEntry* e = find_app(name);
  return e != nullptr && e->bypass;
}

Application* make_app(Testbed& bed, const std::string& name) {
  const AppEntry* e = find_app(name);
  return e == nullptr ? nullptr : &e->make(bed);
}

void Testbed::install_datapath(std::unique_ptr<IoDatapath> datapath) {
  if (!flows_.empty() || !retired_flows_.empty()) {
    throw std::logic_error("install_datapath requires a testbed with no flows");
  }
  if (governor_) throw std::logic_error("install_datapath would replace the governed datapath");
  host_.datapath = std::move(datapath);
  host_.ceio = nullptr;
  nic_->attach(host_.datapath.get());
  if (auditor_) {
    // The standard invariant pack binds probes against the old datapath (and
    // the CEIO credit ledger when present); rebuild it against the new one.
    // The already-scheduled sweep reads auditor_ at fire time, so swapping
    // the object out from under it is safe.
    auditor_ = std::make_unique<ModelAuditor>();
    register_standard_invariants(*auditor_, *this);
    audit_logged_ = 0;
  }
  if (telemetry_) {
    throw std::logic_error("install_datapath must run before enable_telemetry");
  }
}

FlowSource& Testbed::add_flow(const FlowConfig& config, Application& app) {
  return add_flow(config, app, config_.seed);
}

FlowSource& Testbed::add_flow(const FlowConfig& config, Application& app,
                              std::uint64_t stream_seed) {
  FlowRecord& record = flows_[config.id];
  record.source = std::make_unique<FlowSource>(
      windows_, Rng(stream_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(config.id)),
      *link_, config);
  record.core = std::make_unique<CpuCore>(sched_, *mc_, config_.cpu);

  FlowRuntime rt;
  rt.config = config;
  rt.source = record.source.get();
  rt.app = &app;
  rt.core = record.core.get();
  host_.datapath->register_flow(rt);
  record.source->arm_start();
  return *record.source;
}

void Testbed::remove_flow(FlowId id) {
  FlowRecord* record = flows_.find(id);
  if (record == nullptr) return;
  record->source->stop();
  host_.datapath->unregister_flow(id);
  // Park the record: in-flight events may still call into the core/source.
  retired_flows_.push_back(std::move(*record));
  flows_.erase(id);
}

FlowSource* Testbed::source(FlowId id) {
  FlowRecord* record = flows_.find(id);
  return record == nullptr ? nullptr : record->source.get();
}

CpuCore* Testbed::core(FlowId id) {
  FlowRecord* record = flows_.find(id);
  return record == nullptr ? nullptr : record->core.get();
}

std::vector<FlowId> Testbed::flow_ids() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  flows_.for_each([&ids](FlowId id, const FlowRecord&) { ids.push_back(id); });  // id-ordered
  return ids;
}

Telemetry& Testbed::enable_telemetry() {
  if (!telemetry_) {
    telemetry_ = std::make_unique<Telemetry>(sched_, config_.telemetry);
    Telemetry* tele = telemetry_.get();
    MetricRegistry& reg = tele->metrics();
    mc_->register_metrics(reg);
    dma_->register_metrics(reg);
    nic_->register_metrics(reg);
    nic_mem_->register_metrics(reg);
    rmt_->register_metrics(reg);
    host_.datapath->register_metrics(reg);
    mc_->set_telemetry(tele);
    dma_->set_telemetry(tele);
    nic_->set_telemetry(tele);
    rmt_->set_telemetry(tele);
    host_.datapath->set_telemetry(tele);
    if (governor_) {
      reg.add_gauge("policy.tier", [this]() {
        return static_cast<double>(static_cast<int>(governor_->tier()));
      });
      reg.add_gauge("policy.credit_scale",
                    [this]() { return governor_->last_decision().credit_scale; });
      reg.add_gauge("policy.decisions", [this]() {
        return static_cast<double>(governor_->decision_changes());
      });
    }
  }
  telemetry_->set_enabled(true);
  return *telemetry_;
}

ModelAuditor& Testbed::enable_audit(Nanos interval) {
  if (!auditor_) {
    auditor_ = std::make_unique<ModelAuditor>();
    register_standard_invariants(*auditor_, *this);
  }
  audit_interval_ = interval;
  schedule_audit_sweep();
  return *auditor_;
}

void Testbed::schedule_audit_sweep() {
  if (audit_sweep_scheduled_ || !auditor_ || audit_interval_ <= Nanos{0}) return;
  audit_sweep_scheduled_ = true;
  sched_.schedule_after(audit_interval_, [this]() {
    audit_sweep_scheduled_ = false;
    run_audit_sweep();
    schedule_audit_sweep();
  });
}

void Testbed::run_audit_sweep() {
  auditor_->check_all(sched_.now());
  const auto& violations = auditor_->violations();
  for (; audit_logged_ < violations.size(); ++audit_logged_) {
    const AuditViolation& v = violations[audit_logged_];
    CEIO_ERROR("audit: %s/%s violated at t=%lld ns: %s", v.layer.c_str(), v.name.c_str(),
               static_cast<long long>(v.at.count()), v.detail.c_str());
  }
}

void Testbed::run_for(Nanos duration) {
  sched_.run_until(sched_.now() + duration);
  if (auditor_) run_audit_sweep();
}

std::vector<Testbed::Sample> Testbed::run_sampling(Nanos duration, Nanos interval) {
  std::vector<Sample> out;
  const Nanos end = sched_.now() + duration;
  while (sched_.now() < end) {
    reset_measurement();
    const Nanos step = std::min(interval, end - sched_.now());
    run_for(step);
    Sample s;
    s.t = sched_.now();
    s.involved_mpps = aggregate_mpps(FlowKind::kCpuInvolved);
    s.bypass_gbps = aggregate_message_gbps(FlowKind::kCpuBypass);
    s.miss_rate = llc_miss_rate();
    out.push_back(s);
  }
  return out;
}
void Testbed::run_until(Nanos deadline) {
  sched_.run_until(deadline);
  if (auditor_) run_audit_sweep();
}
Nanos Testbed::now() const { return sched_.now(); }

void Testbed::reset_measurement() {
  measure_start_ = sched_.now();
  llc_->reset_stats();
  flows_.for_each([](FlowId, FlowRecord& record) { record.source->reset_measurement(); });
}

FlowReport Testbed::report(FlowId id) const {
  const FlowRecord* record = flows_.find(id);
  if (record == nullptr) return FlowReport{};
  const FlowSource& src = *record->source;
  const Nanos span = sched_.now() - measure_start_;
  FlowReport out;
  out.id = src.id();
  out.kind = src.config().kind;
  out.mpps = src.delivered_meter().mpps(Nanos{0}, span);
  out.gbps = src.delivered_meter().gbps(Nanos{0}, span);
  out.p50 = src.latency().p50();
  out.p99 = src.latency().p99();
  out.p999 = src.latency().p999();
  out.messages = src.stats().messages_completed;
  out.drops = src.stats().packets_dropped;
  const auto& fc = src.config();
  const double message_bytes =
      static_cast<double>(fc.packet_size.count()) * static_cast<double>(fc.message_pkts);
  if (span > Nanos{0}) {
    out.message_gbps =
        static_cast<double>(out.messages) * message_bytes * 8.0 / to_seconds(span) / 1e9;
  }
  return out;
}

std::vector<FlowReport> Testbed::all_reports() const {
  std::vector<FlowReport> out;
  for (const FlowId id : flow_ids()) out.push_back(report(id));
  return out;
}

namespace {

double sum_reports(const std::vector<FlowReport>& reports, double FlowReport::*field,
                   std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const FlowReport& r : reports) {
    if (!kind || r.kind == *kind) sum += r.*field;
  }
  return sum;
}

}  // namespace

double aggregate_mpps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  return sum_reports(reports, &FlowReport::mpps, kind);
}

double aggregate_gbps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  return sum_reports(reports, &FlowReport::gbps, kind);
}

double aggregate_message_gbps(const std::vector<FlowReport>& reports,
                              std::optional<FlowKind> kind) {
  return sum_reports(reports, &FlowReport::message_gbps, kind);
}

double Testbed::aggregate_mpps(std::optional<FlowKind> kind) const {
  return ceio::aggregate_mpps(all_reports(), kind);
}

double Testbed::aggregate_gbps(std::optional<FlowKind> kind) const {
  return ceio::aggregate_gbps(all_reports(), kind);
}

double Testbed::aggregate_message_gbps(std::optional<FlowKind> kind) const {
  return ceio::aggregate_message_gbps(all_reports(), kind);
}

}  // namespace ceio

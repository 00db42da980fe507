// PolicyHost: the actuator surface a datapath exposes to the policy layer.
//
// Every knob here used to be constructor-time configuration in CeioConfig.
// Lifting them behind one interface lets the runtime governor
// (src/policy/governor.h) retune a *live* datapath — per-kind steering,
// credit budgets, landing windows — without rebuilding it, and gives every
// backend the same no-op defaults so callers need not care which system is
// installed.
//
// Contract: every setter is exact at its neutral value. Installing the
// default override (kAuto, scale 1.0) must leave the datapath bit-identical
// to one that never saw the call — the governor-off goldens depend on it.
// Direct calls to these actuators outside src/policy/ are rejected by the
// `raw-actuator` lint rule (escape hatch: `// lint: allow-raw-actuator`),
// so all runtime retuning flows through one auditable layer.
#pragma once

#include <cstddef>

#include "nic/packet.h"

namespace ceio::policy {

/// Per-kind steering override. kAuto defers to the datapath's own machinery
/// (CEIO: credit balance / MPQ priority); kForceSlow pins the kind's flows
/// to the slow path until the override is lifted.
enum class FlowPathOverride {
  kAuto,
  kForceSlow,  // on-NIC memory + elastic drain, never readmitted
};

class PolicyHost {
 public:
  virtual ~PolicyHost() = default;

  // ---- Per-kind path steering ----
  /// Default override applied to every current and future flow of `kind`.
  virtual void set_kind_path(FlowKind kind, FlowPathOverride path) {
    (void)kind;
    (void)path;
  }

  // ---- Credit budget (CEIO) ----
  /// Scales the credit total: effective C = round(base * scale). The base is
  /// whatever the configuration or the tenant way partition installed, so
  /// the two compose; scale 1.0 is exact (no rounding drift).
  virtual void set_credit_scale(double scale) { (void)scale; }
  virtual double credit_scale() const { return 1.0; }

  // ---- Elastic-buffer landing windows (CEIO) ----
  /// Resizes the landed-but-unconsumed drain caps for involved/bypass flows.
  virtual void set_landed_caps(std::size_t involved_cap, std::size_t bypass_cap) {
    (void)involved_cap;
    (void)bypass_cap;
  }
};

}  // namespace ceio::policy

// DCTCP-style rate control (Alizadeh et al., SIGCOMM'10), fluid-rate form.
//
// The source maintains a sending rate. Each delivered packet's ECN mark (or
// its absence) is echoed back; once per observation window (~one RTT) the
// source updates the EWMA mark fraction `alpha` and cuts its rate by
// alpha/2, or additively increases toward line rate when unmarked. Packet
// drops cut the rate multiplicatively, and HostCC/ShRing-style host
// congestion signals are fed in as if they were ECN marks — this is exactly
// the "trigger the network CCA" coupling the paper identifies as the
// baselines' weakness.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace ceio {

struct DctcpConfig {
  double g = 1.0 / 16.0;            // alpha EWMA gain
  Nanos window = micros(20);        // observation window (~1 RTT)
  BitsPerSec min_rate = gbps(0.1);
  BitsPerSec max_rate = gbps(200.0);
  /// Additive increase per window when no marks were seen.
  BitsPerSec additive_increase = gbps(2.0);
  /// Multiplicative cut on a detected loss.
  double loss_backoff = 0.5;
};

class Dctcp {
 public:
  explicit Dctcp(const DctcpConfig& config, BitsPerSec initial_rate)
      : config_(config), rate_(initial_rate) {}

  BitsPerSec rate() const { return rate_; }
  double alpha() const { return alpha_; }

  void on_ack(bool ecn_marked) {
    ++acked_;
    if (ecn_marked || host_congested_) ++marked_;
  }

  /// Host congestion signal (HostCC / ShRing backpressure / CEIO slow-path
  /// producer-overrun). Real host congestion marks *every* packet while it
  /// persists, so one signal marks the remainder of the observation window —
  /// a single signal must not be diluted by thousands of clean acks.
  void on_host_congestion() {
    host_congested_ = true;
    ++marked_;
    ++acked_;
  }

  void on_loss() {
    rate_ = clamp(rate_ * config_.loss_backoff);
    ++losses_;
  }

  /// Window rollover: apply the DCTCP update using marks from the window.
  void on_window(Nanos /*now*/) {
    if (acked_ > 0) {
      const double frac = static_cast<double>(marked_) / static_cast<double>(acked_);
      alpha_ = (1.0 - config_.g) * alpha_ + config_.g * frac;
      if (marked_ > 0) {
        rate_ = clamp(rate_ * (1.0 - alpha_ / 2.0));
      } else {
        rate_ = clamp(rate_ + config_.additive_increase);
      }
    } else {
      // Idle window: probe upward gently.
      rate_ = clamp(rate_ + config_.additive_increase / 4.0);
    }
    acked_ = 0;
    marked_ = 0;
    host_congested_ = false;
  }

  std::int64_t losses() const { return losses_; }
  const DctcpConfig& config() const { return config_; }

 private:
  BitsPerSec clamp(BitsPerSec r) const {
    if (r < config_.min_rate) return config_.min_rate;
    if (r > config_.max_rate) return config_.max_rate;
    return r;
  }

  DctcpConfig config_;
  BitsPerSec rate_;
  double alpha_ = 0.0;
  bool host_congested_ = false;
  std::int64_t acked_ = 0;
  std::int64_t marked_ = 0;
  std::int64_t losses_ = 0;
};

}  // namespace ceio

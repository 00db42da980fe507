// PCIe link model: two independent serialization pipes (upstream NIC->host
// and downstream host->NIC; PCIe is full duplex) with propagation latency
// and TLP overhead from tlp.h.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "pcie/tlp.h"

namespace ceio {

struct PcieLinkConfig {
  // PCIe 5.0 x16: 32 GT/s * 16 lanes * 128b/130b ~= 63 GB/s per direction.
  BitsPerSec bandwidth = gbps(504.0);
  Nanos propagation{250};  // one-way TLP traversal latency
  TlpConfig tlp;
};

struct PcieLinkStats {
  std::int64_t upstream_transfers = 0;
  std::int64_t downstream_transfers = 0;
  Bytes upstream_wire_bytes{0};
  Bytes downstream_wire_bytes{0};
};

class PcieLink {
 public:
  explicit PcieLink(const PcieLinkConfig& config) : config_(config) {}

  /// Reserves upstream (NIC->host) capacity for a payload issued at `now`;
  /// returns the time the last byte lands at the host.
  Nanos upstream(Nanos now, Bytes payload);

  /// Reserves downstream (host->NIC) capacity; returns arrival time at NIC.
  Nanos downstream(Nanos now, Bytes payload);

  const PcieLinkConfig& config() const { return config_; }
  const PcieLinkStats& stats() const { return stats_; }

 private:
  Nanos reserve(Nanos now, Bytes payload, Nanos& free_at, Bytes& wire_counter,
                std::int64_t& transfer_counter);

  PcieLinkConfig config_;
  Nanos up_free_{0};
  Nanos down_free_{0};
  PcieLinkStats stats_;
};

}  // namespace ceio

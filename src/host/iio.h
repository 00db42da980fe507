// Integrated I/O (IIO) buffer occupancy model.
//
// Inbound DMA writes land in the IIO staging buffer before the memory
// controller drains them into the LLC (DDIO) or DRAM. Its occupancy is the
// congestion signal HostCC monitors (paper §2.3): when the drain side (cache
// or DRAM) falls behind the PCIe arrival rate, occupancy rises. We track
// occupancy in bytes with explicit admit/drain transitions so a baseline can
// poll it at any simulated instant.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace ceio {

struct IioConfig {
  Bytes capacity = 256 * kKiB;  // per-socket IIO write buffer
};

class IioBuffer {
 public:
  explicit IioBuffer(const IioConfig& config) : config_(config) {}

  /// Admits an inbound DMA write. Returns false when the buffer is full, in
  /// which case PCIe backpressure stalls the transfer (the caller retries).
  bool admit(Bytes size) {
    if (occupancy_ + size > config_.capacity) {
      ++rejects_;
      return false;
    }
    occupancy_ += size;
    peak_ = occupancy_ > peak_ ? occupancy_ : peak_;
    return true;
  }

  /// Releases bytes once the memory controller finishes the drain.
  void drain(Bytes size) { occupancy_ = occupancy_ > size ? occupancy_ - size : Bytes{0}; }

  Bytes occupancy() const { return occupancy_; }
  double occupancy_fraction() const {
    return config_.capacity > Bytes{0}
               ? static_cast<double>(occupancy_) / static_cast<double>(config_.capacity)
               : 0.0;
  }
  Bytes peak_occupancy() const { return peak_; }
  std::int64_t rejects() const { return rejects_; }
  const IioConfig& config() const { return config_; }

 private:
  IioConfig config_;
  Bytes occupancy_{0};
  Bytes peak_{0};
  std::int64_t rejects_ = 0;
};

}  // namespace ceio

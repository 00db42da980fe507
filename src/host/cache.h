// Last-Level Cache model with a dedicated DDIO partition.
//
// The unit of tracking is an I/O buffer (one packet buffer, e.g. 2 KiB), the
// same granularity at which CEIO issues credits (paper Eq. 1). The cache is
// set-associative: each set has `ddio_ways` ways reserved for inbound DMA
// (Intel DDIO allocates writes only into a subset of ways) and the remaining
// ways for regular CPU fills. This reproduces the paper's core phenomenon:
// when in-flight I/O data exceeds the DDIO partition, newly DMAed buffers
// evict older ones *before the CPU has read them*, so the eventual CPU access
// misses and pays a DRAM round trip (data path ❸ in Figure 3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace ceio {

class MetricRegistry;

/// Identifies one cached I/O buffer (or app buffer). Allocated monotonically
/// by whoever owns the memory (host buffer pool, app pools).
using BufferId = std::uint64_t;

struct LlcConfig {
  Bytes total_bytes = 12 * kMiB;  // Xeon Silver 4309Y LLC
  int ways = 12;
  int ddio_ways = 2;          // default DDIO configuration
  Bytes buffer_bytes = 2 * kKiB;  // tracking granularity (one RX buffer)

  Bytes ddio_bytes() const { return total_bytes / ways * ddio_ways; }
  Bytes app_bytes() const { return total_bytes / ways * (ways - ddio_ways); }
};

struct LlcStats {
  std::int64_t ddio_writes = 0;      // DMA writes absorbed by the LLC
  std::int64_t cpu_hits = 0;         // CPU reads served from LLC
  std::int64_t cpu_misses = 0;       // CPU reads that went to DRAM
  std::int64_t evictions = 0;        // total capacity evictions
  std::int64_t premature_evictions = 0;  // evicted before first CPU read
  std::int64_t writebacks = 0;       // dirty lines pushed to DRAM

  double miss_rate() const {
    const auto total = cpu_hits + cpu_misses;
    return total > 0 ? static_cast<double>(cpu_misses) / static_cast<double>(total) : 0.0;
  }
};

/// Per-tenant DDIO accounting (attributed by way ownership; see
/// set_tenant_ways below). Only populated once tenants are configured.
struct TenantLlcStats {
  std::int64_t fills = 0;                // DDIO insertions into the tenant's ways
  std::int64_t evictions = 0;            // capacity evictions out of them
  std::int64_t premature_evictions = 0;  // evicted before first CPU read
  std::int64_t writebacks = 0;           // dirty victims pushed to DRAM
  std::int64_t budget_bypasses = 0;      // DDIO writes sent uncached (no way reachable)
};

class LlcModel {
 public:
  explicit LlcModel(const LlcConfig& config);

  /// Result of an eviction caused by an insert.
  struct Evicted {
    bool happened = false;
    BufferId victim = 0;
    Bytes victim_bytes{0};      // dirty bytes to write back
    bool dirty = false;          // needs a DRAM write-back
    bool never_read = false;     // premature eviction (evicted before use)
  };

  /// A DMA write lands in the DDIO partition of the buffer's set (write
  /// allocate). Returns the eviction it caused, if any.
  Evicted ddio_write(BufferId id, Bytes size, bool expect_read = true);

  /// A CPU load touches the buffer. On a miss the buffer is filled into the
  /// non-DDIO partition. Returns true on hit.
  bool cpu_read(BufferId id, Bytes size, Evicted* evicted = nullptr);

  /// A CPU store (e.g. memcpy destination). Allocates into the non-DDIO
  /// partition and marks the line dirty. Returns true on hit.
  bool cpu_write(BufferId id, Bytes size, Evicted* evicted = nullptr);

  /// Drops the buffer from the cache without a write-back (buffer freed and
  /// recycled; the next DMA into the recycled buffer re-inserts it).
  void invalidate(BufferId id);

  /// True when the buffer is currently cache-resident (any partition).
  bool resident(BufferId id) const;

  /// Number of buffers currently resident in the DDIO partition.
  std::size_t ddio_occupancy() const { return ddio_resident_; }
  /// Capacity of the DDIO partition, in buffers.
  std::size_t ddio_capacity() const { return ddio_capacity_; }

  // ---- Tenant way-partitioning (CAT-style, within the DDIO ways) ----
  //
  // Until set_tenant_ways is called the cache behaves as one implicit tenant
  // and none of the per-tenant machinery is touched: the single-tenant data
  // path is bit-identical to the untenanted model.

  /// Splits the DDIO ways of every set into contiguous per-tenant exclusive
  /// slices. `ways[t]` is tenant t's exclusive way count; the sum must not
  /// exceed config ddio_ways. Leftover ways form a *shared pool* at the top
  /// of the partition that every tenant may allocate into — the overlapping
  /// portion of the tenants' way masks, which is how default (uncontrolled)
  /// DDIO co-location actually behaves and where cross-tenant eviction
  /// contention lives. Resident lines transfer ownership with their way (no
  /// flush), mirroring how CAT re-masking behaves on real hardware; shared
  /// lines stay attributed to the tenant owning their BufferId.
  void set_tenant_ways(const std::vector<int>& ways);

  /// Declares that BufferIds in [lo, hi) belong to `tenant` (used to pick the
  /// DDIO slice on ddio_write). Unmapped ids belong to tenant 0.
  void add_tenant_range(BufferId lo, BufferId hi, std::size_t tenant);

  std::size_t tenant_count() const { return tenant_ways_.size(); }
  int tenant_ways(std::size_t tenant) const { return tenant_ways_[tenant]; }
  /// Ways in the shared pool (DDIO ways not claimed by any exclusive slice).
  std::size_t shared_io_ways() const { return shared_io_ways_; }
  /// DDIO capacity reachable by one tenant, in buffers: its exclusive slice
  /// plus the shared pool (capacities therefore overlap across tenants when
  /// a shared pool exists).
  std::size_t tenant_way_capacity(std::size_t tenant) const {
    return num_sets_ *
           (static_cast<std::size_t>(tenant_ways_[tenant]) + shared_io_ways_);
  }
  std::size_t tenant_ddio_occupancy(std::size_t tenant) const {
    return tenant_resident_[tenant];
  }
  const TenantLlcStats& tenant_stats(std::size_t tenant) const {
    return tenant_stats_[tenant];
  }
  /// Maps a buffer id to its owning tenant (0 when unmapped or untenanted).
  std::size_t tenant_of(BufferId id) const;

  const LlcStats& stats() const { return stats_; }
  const LlcConfig& config() const { return config_; }
  void reset_stats() {
    stats_ = LlcStats{};
    for (auto& t : tenant_stats_) t = TenantLlcStats{};
  }

  /// Exposes the cache's observables as pull gauges under "host.llc.*"
  /// (telemetry subsystem; no-op cost until a sampler reads them).
  void register_metrics(MetricRegistry& registry) const;

 private:
  // Structure-of-arrays entry storage. The hot lookup scans one contiguous
  // row of `BufferId` tags per set (io ways first, then app ways — 2 cache
  // lines at the default 12-way geometry instead of the 8 an
  // array-of-structs Entry row spanned); stamps, sizes and the packed state
  // flags live in parallel cold arrays indexed by the same global way index
  // `set * ways_per_set_ + way`. Invalid slots keep their tag parked at
  // kInvalidTag so the tag compare alone rejects them and the scan stays
  // branch-light; the flags byte is consulted only on a tag match.
  static constexpr std::uint8_t kValid = 0x01;
  static constexpr std::uint8_t kDirty = 0x02;
  static constexpr std::uint8_t kReadSinceFill = 0x04;
  static constexpr std::uint8_t kExpectRead = 0x08;
  static constexpr std::uint8_t kIoPartition = 0x10;
  static constexpr BufferId kInvalidTag = ~BufferId{0};
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  // The set index is a pure function of the id (Fibonacci hash), so there is
  // no id->set side table to maintain: lookup hashes straight to the set and
  // scans its <= `ways` entries. When the set count is a power of two (the
  // default config: 512 sets) the reduction is a mask instead of a divide.
  std::size_t set_of(BufferId id) const {
    const auto h = static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32);
    return set_mask_ != 0 ? (h & set_mask_) : h % num_sets_;
  }
  std::size_t row_base(std::size_t set) const { return set * ways_per_set_; }
  /// Global way index of the resident line, or kNoWay.
  std::size_t find_way(BufferId id) const;
  // Fills into the global-way-index range [first, last). `io_attr` enables
  // per-tenant way attribution (io-partition fills with tenants configured);
  // `row0` is the set's row base (way index 0 of its io partition).
  Evicted fill_range(std::size_t first, std::size_t last, bool io_attr, std::size_t row0,
                     BufferId id, Bytes size, bool io_partition, bool dirty,
                     bool expect_read = true);
  // Which tenant owns DDIO way index `way` (contiguous slices).
  std::size_t tenant_of_way(std::size_t way) const;
  // Which tenant a resident io line belongs to: its way's owner inside an
  // exclusive slice, its BufferId's owner inside the shared pool.
  std::size_t tenant_of_entry(std::size_t way, BufferId id) const {
    return way < tenant_slice_end_ ? tenant_of_way(way) : tenant_of(id);
  }
  Evicted fill_io_tenanted(std::size_t row0, std::size_t tenant, BufferId id, Bytes size,
                           bool expect_read);
  void note_io_eviction(std::size_t way, std::size_t idx);
  void place(std::size_t idx, BufferId id, Bytes size, bool io_partition, bool dirty,
             bool expect_read);

  LlcConfig config_;
  std::size_t num_sets_ = 0;
  std::size_t ways_per_set_ = 0;     // io + app ways per set (row width)
  std::size_t io_ways_per_set_ = 0;  // DDIO partition: ways [0, io_ways_per_set_)
  std::vector<BufferId> tags_;       // hot: scanned on every lookup
  std::vector<std::uint64_t> stamps_;  // cold: LRU recency clock
  std::vector<Bytes> bytes_;           // cold: payload bytes (write-back size)
  std::vector<std::uint8_t> flags_;    // cold: kValid | kDirty | ... bits
  std::size_t set_mask_ = 0;  // sets-1 when the set count is a power of two, else 0
  // Tenant partitioning state; all empty until set_tenant_ways (zero overhead
  // on the untenanted path).
  std::vector<int> tenant_ways_;            // per-tenant exclusive DDIO way counts
  std::vector<std::size_t> tenant_way_off_;  // prefix offsets into io_ways
  std::size_t tenant_slice_end_ = 0;   // first shared way (sum of slice widths)
  std::size_t shared_io_ways_ = 0;     // ways in the shared pool per set
  std::vector<std::size_t> tenant_resident_;
  std::vector<TenantLlcStats> tenant_stats_;
  struct TenantRange {
    BufferId lo = 0;
    BufferId hi = 0;
    std::size_t tenant = 0;
  };
  std::vector<TenantRange> tenant_ranges_;
  // One-entry MRU lookup cache. Way storage never moves after construction,
  // and find_way() re-validates (tag + valid bit) before trusting it, so a
  // stale index is harmless and no explicit invalidation is needed.
  mutable BufferId last_id_ = 0;
  mutable std::size_t last_way_ = kNoWay;
  std::uint64_t clock_ = 0;
  std::size_t ddio_resident_ = 0;
  std::size_t ddio_capacity_ = 0;
  LlcStats stats_;
};

}  // namespace ceio

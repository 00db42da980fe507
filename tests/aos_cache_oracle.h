// Frozen array-of-structs LlcModel, pre-dating the structure-of-arrays
// layout overhaul in src/host/cache.{h,cc}. This is NOT production code: it
// is the reference oracle for the SoA equivalence test — randomized op
// traces are replayed against both models and every observable (eviction
// results, stats, occupancy, residency, tenant attribution) must match
// exactly. Do not "fix" or modernize it; its value is that it is the old
// implementation, verbatim apart from the namespace rename, the removed
// telemetry hook and the per-tenant occupancy budget, which left both
// models together.
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

namespace ceio_aos {

// The oracle reuses the production vocabulary types (units, BufferId).
using namespace ceio;  // NOLINT


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
    return sets_.size() *
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


 private:
  // Per-entry metadata; LRU is per (set, partition) via a timestamp stamp.
  struct Entry {
    BufferId id = 0;
    Bytes bytes{0};  // valid payload bytes (for write-back accounting)
    bool expect_read = true;  // premature-eviction accounting applies
    std::uint64_t stamp = 0;  // higher = more recently used
    bool valid = false;
    bool dirty = false;
    bool read_since_fill = false;
    bool io_partition = false;
  };

  struct Set {
    std::vector<Entry> io_ways;   // DDIO partition
    std::vector<Entry> app_ways;  // regular partition
  };

  // The set index is a pure function of the id (Fibonacci hash), so there is
  // no id->set side table to maintain: lookup hashes straight to the set and
  // scans its <= `ways` entries. When the set count is a power of two (the
  // default config: 512 sets) the reduction is a mask instead of a divide.
  std::size_t set_of(BufferId id) const {
    const auto h = static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32);
    return set_mask_ != 0 ? (h & set_mask_) : h % sets_.size();
  }
  Entry* find(BufferId id);
  const Entry* find(BufferId id) const;
  // Fills into [first, last). `io_base` is the set's io_ways base pointer when
  // filling the DDIO partition (enables per-tenant way attribution), nullptr
  // for app-way fills.
  Evicted fill(Entry* first, Entry* last, Entry* io_base, BufferId id, Bytes size,
               bool io_partition, bool dirty, bool expect_read = true);
  Evicted fill(std::vector<Entry>& ways, BufferId id, Bytes size, bool io_partition, bool dirty,
               bool expect_read = true);
  // Which tenant owns DDIO way index `way` (contiguous slices).
  std::size_t tenant_of_way(std::size_t way) const;
  // Which tenant a resident io line belongs to: its way's owner inside an
  // exclusive slice, its BufferId's owner inside the shared pool.
  std::size_t tenant_of_entry(std::size_t way, BufferId id) const {
    return way < tenant_slice_end_ ? tenant_of_way(way) : tenant_of(id);
  }
  Evicted fill_io_tenanted(Set& set, std::size_t tenant, BufferId id, Bytes size,
                           bool expect_read);
  void note_io_eviction(std::size_t way, const Entry& victim);

  LlcConfig config_;
  std::vector<Set> sets_;
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
  // One-entry MRU lookup cache. Entry storage never moves after construction,
  // and find() re-validates (valid && id match) before trusting it, so stale
  // pointers are harmless and no explicit invalidation is needed.
  mutable BufferId last_id_ = 0;
  mutable Entry* last_entry_ = nullptr;
  std::uint64_t clock_ = 0;
  std::size_t ddio_resident_ = 0;
  std::size_t ddio_capacity_ = 0;
  LlcStats stats_;
};

}  // namespace ceio_aos

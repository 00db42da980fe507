#include "host/cache.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace ceio {

LlcModel::LlcModel(const LlcConfig& config) : config_(config) {
  const auto total_buffers =
      static_cast<std::size_t>(std::max<std::int64_t>(config.total_bytes / config.buffer_bytes, 1));
  const auto ways = static_cast<std::size_t>(std::max(config.ways, 1));
  const auto num_sets = std::max<std::size_t>(total_buffers / ways, 1);
  const auto ddio_ways = static_cast<std::size_t>(std::clamp(config.ddio_ways, 0, config.ways));
  num_sets_ = num_sets;
  ways_per_set_ = ways;
  io_ways_per_set_ = ddio_ways;
  const std::size_t total_ways = num_sets * ways;
  tags_.assign(total_ways, kInvalidTag);
  stamps_.assign(total_ways, 0);
  bytes_.assign(total_ways, Bytes{0});
  flags_.assign(total_ways, 0);
  ddio_capacity_ = num_sets * ddio_ways;
  if ((num_sets & (num_sets - 1)) == 0) set_mask_ = num_sets - 1;
}

std::size_t LlcModel::find_way(BufferId id) const {
  if (last_way_ != kNoWay && last_id_ == id && tags_[last_way_] == id &&
      (flags_[last_way_] & kValid) != 0) {
    return last_way_;
  }
  const std::size_t base = row_base(set_of(id));
  const BufferId* tags = tags_.data() + base;
  for (std::size_t w = 0; w < ways_per_set_; ++w) {
    // Invalid slots park their tag at kInvalidTag, so the compare alone
    // rejects them; the flags byte is only consulted on the (rare) match.
    if (tags[w] == id && (flags_[base + w] & kValid) != 0) {
      last_id_ = id;
      last_way_ = base + w;
      return base + w;
    }
  }
  return kNoWay;
}

std::size_t LlcModel::tenant_of_way(std::size_t way) const {
  // tenant_way_off_[t] is the first way index owned by tenant t; slices are
  // contiguous, so scan for the last offset <= way. Tenant counts are tiny
  // (2-4), so a linear scan beats a binary search here.
  std::size_t t = 0;
  for (std::size_t i = 1; i < tenant_way_off_.size(); ++i) {
    if (way >= tenant_way_off_[i]) t = i;
  }
  return t;
}

std::size_t LlcModel::tenant_of(BufferId id) const {
  for (const auto& r : tenant_ranges_) {
    if (id >= r.lo && id < r.hi) return r.tenant;
  }
  return 0;
}

void LlcModel::note_io_eviction(std::size_t way, std::size_t idx) {
  const std::size_t t = tenant_of_entry(way, tags_[idx]);
  auto& ts = tenant_stats_[t];
  const std::uint8_t f = flags_[idx];
  ++ts.evictions;
  if ((f & kExpectRead) != 0 && (f & kReadSinceFill) == 0) ++ts.premature_evictions;
  if ((f & kDirty) != 0) ++ts.writebacks;
  if (tenant_resident_[t] > 0) --tenant_resident_[t];
}

void LlcModel::place(std::size_t idx, BufferId id, Bytes size, bool io_partition, bool dirty,
                     bool expect_read) {
  tags_[idx] = id;
  bytes_[idx] = size;
  stamps_[idx] = ++clock_;
  flags_[idx] = static_cast<std::uint8_t>(kValid | (dirty ? kDirty : 0) |
                                          (expect_read ? kExpectRead : 0) |
                                          (io_partition ? kIoPartition : 0));
  last_id_ = id;
  last_way_ = idx;
}

LlcModel::Evicted LlcModel::fill_range(std::size_t first, std::size_t last, bool io_attr,
                                       std::size_t row0, BufferId id, Bytes size,
                                       bool io_partition, bool dirty, bool expect_read) {
  Evicted out;
  std::size_t slot = kNoWay;
  // Prefer an invalid way; otherwise evict the LRU entry.
  for (std::size_t w = first; w != last; ++w) {
    if ((flags_[w] & kValid) == 0) {
      slot = w;
      break;
    }
  }
  const bool tenanted = io_attr && !tenant_ways_.empty();
  if (slot == kNoWay) {
    slot = first;
    for (std::size_t w = first; w != last; ++w) {
      if (stamps_[w] < stamps_[slot]) slot = w;
    }
    const std::uint8_t vf = flags_[slot];
    out.happened = true;
    out.victim = tags_[slot];
    out.victim_bytes = bytes_[slot];
    out.dirty = (vf & kDirty) != 0;
    out.never_read = (vf & kExpectRead) != 0 && (vf & kReadSinceFill) == 0;
    ++stats_.evictions;
    if (out.never_read) ++stats_.premature_evictions;
    if (out.dirty) ++stats_.writebacks;
    if ((vf & kIoPartition) != 0 && ddio_resident_ > 0) --ddio_resident_;
    if (tenanted && (vf & kIoPartition) != 0) {
      note_io_eviction(slot - row0, slot);
    }
  }
  place(slot, id, size, io_partition, dirty, expect_read);
  if (io_partition) ++ddio_resident_;
  if (tenanted && io_partition) {
    const std::size_t t = tenant_of_entry(slot - row0, id);
    ++tenant_resident_[t];
    ++tenant_stats_[t].fills;
  }
  return out;
}

LlcModel::Evicted LlcModel::fill_io_tenanted(std::size_t row0, std::size_t tenant, BufferId id,
                                             Bytes size, bool expect_read) {
  // Candidate ways = the tenant's exclusive slice plus the shared pool at the
  // top of the io partition: one associative group under LRU, so a hot
  // neighbor's fills can evict this tenant's shared-pool lines (the
  // co-location contention the controller reacts to) but never its slice.
  const std::size_t s1 = row0 + tenant_way_off_[tenant];
  const std::size_t e1 = s1 + static_cast<std::size_t>(tenant_ways_[tenant]);
  const std::size_t s2 = row0 + tenant_slice_end_;
  const std::size_t e2 = row0 + io_ways_per_set_;
  std::size_t slot = kNoWay;
  for (std::size_t w = s1; w != e1 && slot == kNoWay; ++w) {
    if ((flags_[w] & kValid) == 0) slot = w;
  }
  for (std::size_t w = s2; w != e2 && slot == kNoWay; ++w) {
    if ((flags_[w] & kValid) == 0) slot = w;
  }
  Evicted out;
  if (slot == kNoWay) {
    for (std::size_t w = s1; w != e1; ++w) {
      if (slot == kNoWay || stamps_[w] < stamps_[slot]) slot = w;
    }
    for (std::size_t w = s2; w != e2; ++w) {
      if (slot == kNoWay || stamps_[w] < stamps_[slot]) slot = w;
    }
    const std::uint8_t vf = flags_[slot];
    out.happened = true;
    out.victim = tags_[slot];
    out.victim_bytes = bytes_[slot];
    out.dirty = (vf & kDirty) != 0;
    out.never_read = (vf & kExpectRead) != 0 && (vf & kReadSinceFill) == 0;
    ++stats_.evictions;
    if (out.never_read) ++stats_.premature_evictions;
    if (out.dirty) ++stats_.writebacks;
    if ((vf & kIoPartition) != 0 && ddio_resident_ > 0) --ddio_resident_;
    if ((vf & kIoPartition) != 0) note_io_eviction(slot - row0, slot);
  }
  place(slot, id, size, /*io_partition=*/true, /*dirty=*/true, expect_read);
  ++ddio_resident_;
  ++tenant_resident_[tenant];
  ++tenant_stats_[tenant].fills;
  return out;
}

LlcModel::Evicted LlcModel::ddio_write(BufferId id, Bytes size, bool expect_read) {
  ++stats_.ddio_writes;
  const std::size_t idx = find_way(id);
  if (idx != kNoWay) {
    // Write-update in place: refresh recency, mark dirty.
    stamps_[idx] = ++clock_;
    bytes_[idx] = size;
    flags_[idx] = static_cast<std::uint8_t>(
        (flags_[idx] & ~(kReadSinceFill | kExpectRead)) | kDirty |
        (expect_read ? kExpectRead : 0));
    return {};
  }
  const std::size_t base = row_base(set_of(id));
  if (io_ways_per_set_ == 0) {
    // DDIO disabled: the write goes straight to DRAM and is not cached.
    Evicted out;
    out.happened = false;
    return out;
  }
  if (!tenant_ways_.empty()) {
    // Tenanted DDIO: allocate within the owning tenant's way mask (exclusive
    // slice + shared pool). A tenant that reaches no way writes uncached,
    // straight to DRAM, like the DDIO-disabled path above.
    const std::size_t t = tenant_of(id);
    if (tenant_ways_[t] == 0 && shared_io_ways_ == 0) {
      ++tenant_stats_[t].budget_bypasses;
      Evicted out;
      out.happened = false;
      return out;
    }
    return fill_io_tenanted(base, t, id, size, expect_read);
  }
  return fill_range(base, base + io_ways_per_set_, /*io_attr=*/true, base, id, size,
                    /*io_partition=*/true, /*dirty=*/true, expect_read);
}

bool LlcModel::cpu_read(BufferId id, Bytes size, Evicted* evicted) {
  const std::size_t idx = find_way(id);
  if (idx != kNoWay) {
    stamps_[idx] = ++clock_;
    flags_[idx] |= kReadSinceFill;
    ++stats_.cpu_hits;
    return true;
  }
  ++stats_.cpu_misses;
  const std::size_t base = row_base(set_of(id));
  const bool app_empty = io_ways_per_set_ == ways_per_set_;
  const std::size_t first = app_empty ? base : base + io_ways_per_set_;
  const std::size_t last = base + ways_per_set_;
  const auto ev = fill_range(first, last, /*io_attr=*/app_empty, base, id, size,
                             /*io_partition=*/app_empty, /*dirty=*/false);
  const std::size_t filled = find_way(id);
  if (filled != kNoWay) flags_[filled] |= kReadSinceFill;
  if (evicted != nullptr) *evicted = ev;
  return false;
}

bool LlcModel::cpu_write(BufferId id, Bytes size, Evicted* evicted) {
  const std::size_t idx = find_way(id);
  if (idx != kNoWay) {
    stamps_[idx] = ++clock_;
    flags_[idx] |= kDirty;
    ++stats_.cpu_hits;
    return true;
  }
  ++stats_.cpu_misses;
  const std::size_t base = row_base(set_of(id));
  const bool app_empty = io_ways_per_set_ == ways_per_set_;
  const std::size_t first = app_empty ? base : base + io_ways_per_set_;
  const std::size_t last = base + ways_per_set_;
  const auto ev = fill_range(first, last, /*io_attr=*/app_empty, base, id, size,
                             /*io_partition=*/app_empty, /*dirty=*/true);
  if (evicted != nullptr) *evicted = ev;
  return false;
}

void LlcModel::invalidate(BufferId id) {
  const std::size_t idx = find_way(id);
  if (idx == kNoWay) return;
  const std::uint8_t f = flags_[idx];
  if ((f & kIoPartition) != 0 && ddio_resident_ > 0) --ddio_resident_;
  if ((f & kIoPartition) != 0 && !tenant_ways_.empty()) {
    // Attribute by way ownership (shared-pool lines by BufferId): the global
    // way index modulo the row base identifies the way inside the set's io
    // partition.
    const std::size_t way = idx - row_base(set_of(id));
    const std::size_t t = tenant_of_entry(way, id);
    if (tenant_resident_[t] > 0) --tenant_resident_[t];
  }
  flags_[idx] = static_cast<std::uint8_t>(f & ~(kValid | kDirty));
  // Park the tag so the branch-light lookup scan rejects this slot on the
  // compare alone.
  tags_[idx] = kInvalidTag;
}

bool LlcModel::resident(BufferId id) const { return find_way(id) != kNoWay; }

void LlcModel::set_tenant_ways(const std::vector<int>& ways) {
  const std::size_t per_set = io_ways_per_set_;
  std::size_t sum = 0;
  for (int w : ways) {
    if (w < 0) throw std::invalid_argument("tenant way count must be non-negative");
    sum += static_cast<std::size_t>(w);
  }
  if (sum > per_set) {
    throw std::invalid_argument("tenant way counts exceed the DDIO way count");
  }
  tenant_ways_ = ways;
  tenant_slice_end_ = sum;
  shared_io_ways_ = per_set - sum;
  tenant_way_off_.assign(ways.size(), 0);
  for (std::size_t t = 1; t < ways.size(); ++t) {
    tenant_way_off_[t] = tenant_way_off_[t - 1] + static_cast<std::size_t>(ways[t - 1]);
  }
  if (tenant_resident_.size() != ways.size()) tenant_resident_.assign(ways.size(), 0);
  if (tenant_stats_.size() != ways.size()) tenant_stats_.resize(ways.size());
  // Re-masking transfers resident lines with their way (no flush), so rescan
  // to recompute each tenant's occupancy under the new slice boundaries
  // (shared-pool lines stay with their BufferId's owner).
  std::fill(tenant_resident_.begin(), tenant_resident_.end(), 0);
  for (std::size_t s = 0; s < num_sets_; ++s) {
    const std::size_t base = row_base(s);
    for (std::size_t w = 0; w < io_ways_per_set_; ++w) {
      const std::uint8_t f = flags_[base + w];
      if ((f & kValid) != 0 && (f & kIoPartition) != 0) {
        ++tenant_resident_[tenant_of_entry(w, tags_[base + w])];
      }
    }
  }
}

void LlcModel::add_tenant_range(BufferId lo, BufferId hi, std::size_t tenant) {
  tenant_ranges_.push_back({lo, hi, tenant});
}

void LlcModel::register_metrics(MetricRegistry& registry) const {
  registry.add_gauge("host.llc.ddio_occupancy",
                     [this]() { return static_cast<double>(ddio_occupancy()); });
  registry.add_gauge("host.llc.ddio_capacity",
                     [this]() { return static_cast<double>(ddio_capacity()); });
  registry.add_gauge("host.llc.miss_rate", [this]() { return stats_.miss_rate(); });
  registry.add_gauge("host.llc.cpu_misses",
                     [this]() { return static_cast<double>(stats_.cpu_misses); });
  registry.add_gauge("host.llc.premature_evictions",
                     [this]() { return static_cast<double>(stats_.premature_evictions); });
  registry.add_gauge("host.llc.writebacks",
                     [this]() { return static_cast<double>(stats_.writebacks); });
}

}  // namespace ceio

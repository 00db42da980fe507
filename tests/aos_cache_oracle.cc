// Frozen AoS LlcModel implementation — the SoA equivalence oracle. See
// aos_cache_oracle.h for why this file must stay as-is.
#include "aos_cache_oracle.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"

namespace ceio_aos {

// The oracle reuses the production vocabulary types (units, BufferId).
using namespace ceio;  // NOLINT

LlcModel::LlcModel(const LlcConfig& config) : config_(config) {
  const auto total_buffers =
      static_cast<std::size_t>(std::max<std::int64_t>(config.total_bytes / config.buffer_bytes, 1));
  const auto ways = static_cast<std::size_t>(std::max(config.ways, 1));
  const auto num_sets = std::max<std::size_t>(total_buffers / ways, 1);
  const auto ddio_ways = static_cast<std::size_t>(std::clamp(config.ddio_ways, 0, config.ways));
  sets_.resize(num_sets);
  for (auto& set : sets_) {
    set.io_ways.resize(ddio_ways);
    set.app_ways.resize(ways - ddio_ways);
  }
  ddio_capacity_ = num_sets * ddio_ways;
  if ((num_sets & (num_sets - 1)) == 0) set_mask_ = num_sets - 1;
}

LlcModel::Entry* LlcModel::find(BufferId id) {
  if (last_entry_ != nullptr && last_id_ == id && last_entry_->valid &&
      last_entry_->id == id) {
    return last_entry_;
  }
  auto& set = sets_[set_of(id)];
  for (auto& e : set.io_ways) {
    if (e.valid && e.id == id) {
      last_id_ = id;
      last_entry_ = &e;
      return &e;
    }
  }
  for (auto& e : set.app_ways) {
    if (e.valid && e.id == id) {
      last_id_ = id;
      last_entry_ = &e;
      return &e;
    }
  }
  return nullptr;
}

const LlcModel::Entry* LlcModel::find(BufferId id) const {
  return const_cast<LlcModel*>(this)->find(id);
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

void LlcModel::note_io_eviction(std::size_t way, const Entry& victim) {
  const std::size_t t = tenant_of_entry(way, victim.id);
  auto& ts = tenant_stats_[t];
  ++ts.evictions;
  if (victim.expect_read && !victim.read_since_fill) ++ts.premature_evictions;
  if (victim.dirty) ++ts.writebacks;
  if (tenant_resident_[t] > 0) --tenant_resident_[t];
}

LlcModel::Evicted LlcModel::fill(Entry* first, Entry* last, Entry* io_base, BufferId id,
                                 Bytes size, bool io_partition, bool dirty, bool expect_read) {
  Evicted out;
  Entry* slot = nullptr;
  // Prefer an invalid way; otherwise evict the LRU entry.
  for (Entry* e = first; e != last; ++e) {
    if (!e->valid) {
      slot = e;
      break;
    }
  }
  const bool tenanted = io_base != nullptr && !tenant_ways_.empty();
  if (slot == nullptr) {
    slot = first;
    for (Entry* e = first; e != last; ++e) {
      if (e->stamp < slot->stamp) slot = e;
    }
    out.happened = true;
    out.victim = slot->id;
    out.victim_bytes = slot->bytes;
    out.dirty = slot->dirty;
    out.never_read = slot->expect_read && !slot->read_since_fill;
    ++stats_.evictions;
    if (out.never_read) ++stats_.premature_evictions;
    if (out.dirty) ++stats_.writebacks;
    if (slot->io_partition && ddio_resident_ > 0) --ddio_resident_;
    if (tenanted && slot->io_partition) {
      note_io_eviction(static_cast<std::size_t>(slot - io_base), *slot);
    }
  }
  slot->id = id;
  slot->bytes = size;
  slot->stamp = ++clock_;
  slot->valid = true;
  slot->dirty = dirty;
  slot->read_since_fill = false;
  slot->expect_read = expect_read;
  slot->io_partition = io_partition;
  if (io_partition) ++ddio_resident_;
  if (tenanted && io_partition) {
    const std::size_t t = tenant_of_entry(static_cast<std::size_t>(slot - io_base), id);
    ++tenant_resident_[t];
    ++tenant_stats_[t].fills;
  }
  last_id_ = id;
  last_entry_ = slot;
  return out;
}

LlcModel::Evicted LlcModel::fill_io_tenanted(Set& set, std::size_t tenant, BufferId id,
                                             Bytes size, bool expect_read) {
  // Candidate ways = the tenant's exclusive slice plus the shared pool at the
  // top of the io partition: one associative group under LRU, so a hot
  // neighbor's fills can evict this tenant's shared-pool lines (the
  // co-location contention the controller reacts to) but never its slice.
  Entry* base = set.io_ways.data();
  Entry* s1 = base + tenant_way_off_[tenant];
  Entry* e1 = s1 + static_cast<std::size_t>(tenant_ways_[tenant]);
  Entry* s2 = base + tenant_slice_end_;
  Entry* e2 = base + set.io_ways.size();
  Entry* slot = nullptr;
  for (Entry* e = s1; e != e1 && slot == nullptr; ++e) {
    if (!e->valid) slot = e;
  }
  for (Entry* e = s2; e != e2 && slot == nullptr; ++e) {
    if (!e->valid) slot = e;
  }
  Evicted out;
  if (slot == nullptr) {
    for (Entry* e = s1; e != e1; ++e) {
      if (slot == nullptr || e->stamp < slot->stamp) slot = e;
    }
    for (Entry* e = s2; e != e2; ++e) {
      if (slot == nullptr || e->stamp < slot->stamp) slot = e;
    }
    out.happened = true;
    out.victim = slot->id;
    out.victim_bytes = slot->bytes;
    out.dirty = slot->dirty;
    out.never_read = slot->expect_read && !slot->read_since_fill;
    ++stats_.evictions;
    if (out.never_read) ++stats_.premature_evictions;
    if (out.dirty) ++stats_.writebacks;
    if (slot->io_partition && ddio_resident_ > 0) --ddio_resident_;
    if (slot->io_partition) note_io_eviction(static_cast<std::size_t>(slot - base), *slot);
  }
  slot->id = id;
  slot->bytes = size;
  slot->stamp = ++clock_;
  slot->valid = true;
  slot->dirty = true;
  slot->read_since_fill = false;
  slot->expect_read = expect_read;
  slot->io_partition = true;
  ++ddio_resident_;
  ++tenant_resident_[tenant];
  ++tenant_stats_[tenant].fills;
  last_id_ = id;
  last_entry_ = slot;
  return out;
}

LlcModel::Evicted LlcModel::fill(std::vector<Entry>& ways, BufferId id, Bytes size,
                                 bool io_partition, bool dirty, bool expect_read) {
  return fill(ways.data(), ways.data() + ways.size(),
              io_partition ? ways.data() : nullptr, id, size, io_partition, dirty, expect_read);
}

LlcModel::Evicted LlcModel::ddio_write(BufferId id, Bytes size, bool expect_read) {
  ++stats_.ddio_writes;
  if (Entry* e = find(id)) {
    // Write-update in place: refresh recency, mark dirty.
    e->stamp = ++clock_;
    e->dirty = true;
    e->bytes = size;
    e->read_since_fill = false;
    e->expect_read = expect_read;
    return {};
  }
  auto& set = sets_[set_of(id)];
  if (set.io_ways.empty()) {
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
    return fill_io_tenanted(set, t, id, size, expect_read);
  }
  return fill(set.io_ways, id, size, /*io_partition=*/true, /*dirty=*/true, expect_read);
}

bool LlcModel::cpu_read(BufferId id, Bytes size, Evicted* evicted) {
  if (Entry* e = find(id)) {
    e->stamp = ++clock_;
    e->read_since_fill = true;
    ++stats_.cpu_hits;
    return true;
  }
  ++stats_.cpu_misses;
  auto& set = sets_[set_of(id)];
  auto& ways = set.app_ways.empty() ? set.io_ways : set.app_ways;
  const auto ev = fill(ways, id, size, /*io_partition=*/set.app_ways.empty(), /*dirty=*/false);
  if (Entry* e = find(id)) e->read_since_fill = true;
  if (evicted != nullptr) *evicted = ev;
  return false;
}

bool LlcModel::cpu_write(BufferId id, Bytes size, Evicted* evicted) {
  if (Entry* e = find(id)) {
    e->stamp = ++clock_;
    e->dirty = true;
    ++stats_.cpu_hits;
    return true;
  }
  ++stats_.cpu_misses;
  auto& set = sets_[set_of(id)];
  auto& ways = set.app_ways.empty() ? set.io_ways : set.app_ways;
  const auto ev = fill(ways, id, size, /*io_partition=*/set.app_ways.empty(), /*dirty=*/true);
  if (evicted != nullptr) *evicted = ev;
  return false;
}

void LlcModel::invalidate(BufferId id) {
  if (Entry* e = find(id)) {
    if (e->io_partition && ddio_resident_ > 0) --ddio_resident_;
    if (e->io_partition && !tenant_ways_.empty()) {
      // Attribute by way ownership (shared-pool lines by BufferId): entry
      // storage never moves, so the pointer offset into the set's io_ways
      // identifies the way index.
      auto& set = sets_[set_of(id)];
      const auto way = static_cast<std::size_t>(e - set.io_ways.data());
      const std::size_t t = tenant_of_entry(way, id);
      if (tenant_resident_[t] > 0) --tenant_resident_[t];
    }
    e->valid = false;
    e->dirty = false;
  }
}

bool LlcModel::resident(BufferId id) const { return find(id) != nullptr; }

void LlcModel::set_tenant_ways(const std::vector<int>& ways) {
  std::size_t per_set = sets_.empty() ? 0 : sets_.front().io_ways.size();
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
  for (const auto& set : sets_) {
    for (std::size_t w = 0; w < set.io_ways.size(); ++w) {
      if (set.io_ways[w].valid && set.io_ways[w].io_partition) {
        ++tenant_resident_[tenant_of_entry(w, set.io_ways[w].id)];
      }
    }
  }
}

void LlcModel::add_tenant_range(BufferId lo, BufferId hi, std::size_t tenant) {
  tenant_ranges_.push_back({lo, hi, tenant});
}

}  // namespace ceio_aos

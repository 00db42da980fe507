#include "apps/kv_store.h"

namespace ceio {
namespace {
// App buffer ids live far above the RX pool ranges so they never collide.
constexpr BufferId kKvAppBufferBase = 1ULL << 40;
}  // namespace

KvStore::KvStore(Rng& rng, const KvConfig& config)
    : rng_(rng), config_(config), next_app_buffer_(kKvAppBufferBase) {
  values_.reserve(config_.entries);
  for (std::size_t i = 0; i < config_.entries; ++i) {
    std::string key = "key-" + std::to_string(i);
    key.resize(static_cast<std::size_t>(config_.key_bytes), 'k');
    index_.emplace(std::move(key), i);
    values_.emplace_back(static_cast<std::size_t>(config_.value_bytes), 'v');
  }
}

AppPacketCosts KvStore::packet_costs(const Packet& pkt) {
  (void)pkt;
  AppPacketCosts costs;
  const bool is_get = rng_.chance(config_.get_fraction);
  if (is_get) {
    ++gets_;
  } else {
    ++puts_;
  }
  // Exercise the store so the cost model and the real structure stay
  // honest with each other: a get finds the value in place; a put
  // overwrites it with a same-sized value (steady state, no allocation).
  std::string& value = values_[rng_.zipf(config_.entries, config_.zipf_skew)];
  if (!is_get) value.assign(static_cast<std::size_t>(config_.value_bytes), 'u');
  costs.app_cost = config_.lookup_cost + config_.response_cost;
  costs.read_buffer = true;
  if (!config_.zero_copy) {
    // Non-zero-copy variant: request payload is copied into an app buffer
    // before processing (used by the §6.4 zero-copy lesson experiment).
    costs.copy_to = next_app_buffer_++;
  }
  return costs;
}

AppMessageCosts KvStore::message_costs(const Packet& last_pkt) {
  (void)last_pkt;
  return {};  // RPC requests are single-packet; all work is per packet.
}

void KvStore::put(const std::string& key, std::string value) {
  const auto [it, inserted] = index_.try_emplace(key, values_.size());
  if (inserted) {
    values_.push_back(std::move(value));
  } else {
    values_[it->second] = std::move(value);
  }
}

const std::string* KvStore::get(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &values_[it->second];
}

}  // namespace ceio

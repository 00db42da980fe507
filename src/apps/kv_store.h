// eRPC-style key-value store (CPU-involved application).
//
// Mirrors the paper's benchmark: 1:1 get/put with a 1:4 key:value ratio over
// a small populated store. eRPC's zero-copy design means the request buffer
// is processed in place (no memcpy); the application cost is a hash-table
// lookup plus response construction. The store itself is tiny (1,000
// entries) so its own data mostly stays cache-resident — the interesting
// cache traffic is the RX buffers, which is exactly what CEIO manages.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/application.h"
#include "common/rng.h"

namespace ceio {

struct KvConfig {
  std::size_t entries = 1'000;
  Bytes key_bytes{16};
  Bytes value_bytes{64};
  double get_fraction = 0.5;   // 1:1 get/put
  double zipf_skew = 0.99;     // key popularity
  Nanos lookup_cost{120};     // hash + bucket walk
  Nanos response_cost{40};    // response header build (zero-copy payload)
  bool zero_copy = true;       // eRPC-style in-place processing
};

class KvStore final : public Application {
 public:
  KvStore(Rng& rng, const KvConfig& config = {});

  const char* name() const override { return "erpc-kv"; }
  bool per_packet_cpu() const override { return true; }
  AppPacketCosts packet_costs(const Packet& pkt) override;
  AppMessageCosts message_costs(const Packet& last_pkt) override;

  // ---- Functional KV interface (used by examples/tests; the cost model
  // above is what the simulator charges). ----
  void put(const std::string& key, std::string value);
  const std::string* get(const std::string& key) const;
  std::size_t size() const { return values_.size(); }

  std::int64_t gets() const { return gets_; }
  std::int64_t puts() const { return puts_; }
  const KvConfig& config() const { return config_; }

 private:
  Rng& rng_;
  KvConfig config_;
  // Values addressed by key index: a simulated op draws an index and works
  // on values_ directly (no key hashing; a put assigns into the value's
  // existing capacity). The string index serves the functional put/get;
  // hash-based on purpose, it is never iterated, so its order cannot reach
  // any output.
  std::vector<std::string> values_;
  std::unordered_map<std::string, std::size_t> index_;
  std::int64_t gets_ = 0;
  std::int64_t puts_ = 0;
  // App-buffer ids for the non-zero-copy variant (requests copied out).
  BufferId next_app_buffer_;
};

}  // namespace ceio

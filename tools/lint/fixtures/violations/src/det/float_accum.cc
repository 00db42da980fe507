// Seeded float-accum violations for the ceio_lint self-test: a double
// accumulated across a hash-ordered loop is order-dependent even when the
// visited set is identical. The integer sum, the key-ordered-map sum and the
// suppressed checksum must NOT be reported.
#include <cstdint>
#include <map>
#include <unordered_map>

namespace fixture {

class Gauges {
 public:
  double mean_latency() const {
    double total = 0.0;
    for (const auto& [id, v] : lat_) {  // lint: allow-unordered-iter (fixture: accumulation audited separately)
      total += v;  // violation: order-dependent float sum
    }
    return lat_.empty() ? 0.0 : total / static_cast<double>(lat_.size());
  }

  std::int64_t packet_total() const {
    std::int64_t count = 0;
    for (const auto& [id, v] : pkts_) count += v;  // lint: allow-unordered-iter (order-invariant integer sum)
    return count;
  }

  double ordered_mean() const {
    double total = 0.0;
    for (const auto& [id, v] : ordered_) {  // ok: key-ordered map
      total += v;
    }
    return ordered_.empty() ? 0.0 : total / static_cast<double>(ordered_.size());
  }

  double checksum() const {
    double acc = 0.0;
    for (const auto& [id, v] : lat_) {  // lint: allow-unordered-iter (fixture)
      acc += v;  // lint: allow-float-accum (fixture: tolerance-tested downstream)
    }
    return acc;
  }

 private:
  std::unordered_map<std::uint32_t, double> lat_;
  std::unordered_map<std::uint32_t, std::int64_t> pkts_;
  std::map<std::uint32_t, double> ordered_;
};

}  // namespace fixture

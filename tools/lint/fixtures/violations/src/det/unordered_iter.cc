// Seeded unordered-iter violations for the ceio_lint self-test: raw
// iteration over hash-ordered containers reaching an output sink, via a
// member, an iterator loop, and an alias-typed parameter. The std::map loop
// and the suppressed integer sum must NOT be reported.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

using Table = std::unordered_map<int, long>;

class Telemetry {
 public:
  void snapshot(std::vector<std::string>& out) const {
    for (const auto& [id, count] : counts_) {  // violation: order escapes
      out.push_back(std::to_string(id) + "=" + std::to_string(count));
    }
  }

  long total() const {
    long sum = 0;
    for (const auto& kv : counts_) sum += kv.second;  // lint: allow-unordered-iter (order-invariant integer sum)
    return sum;
  }

  void drain(std::vector<int>& out) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {  // violation
      out.push_back(*it);
    }
  }

  void ordered_report(std::vector<int>& out) const {
    for (const auto& [id, name] : names_) {  // ok: key-ordered map
      out.push_back(id + static_cast<int>(name.size()));
    }
  }

 private:
  std::unordered_map<std::uint64_t, long> counts_;
  std::unordered_set<int> live_;
  std::map<int, std::string> names_;
};

long drain_alias(Table& t) {
  long sum = 0;
  for (const auto& kv : t) sum += kv.second;  // violation: alias-typed param
  return sum;
}

}  // namespace fixture

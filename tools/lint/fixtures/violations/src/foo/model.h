// Seeded ceio_lint violations: raw-unit-param, vector-return and
// unreflected-config, each with a suppressed or negative twin. Line numbers
// are pinned by fixtures/expected_findings.txt.
#pragma once

#include <cstdint>
#include <vector>

namespace fixture {

struct Packet;
class Scheduler;

class Model {
 public:
  std::vector<Packet> drain();         // violation: vector-return
  std::vector<Packet> legacy_drain();  // lint: allow-vector-return
  void tick();

 private:
  std::int64_t timeout_ns = 0;    // violation: raw-unit-param
  std::int64_t budget_bytes = 0;  // lint: allow-raw-unit-param
  int plain_counter = 0;          // ok: not a unit quantity
};

struct KnobConfig {  // violation: unreflected-config
  int depth = 4;
};

struct TunedConfig {  // ok: reflected below
  int ways = 8;
};

struct HiddenConfig {  // lint: allow-unreflected-config
  int secret = 0;
};

template <typename V>
void visit_fields(TunedConfig& c, V&& v);

}  // namespace fixture

// Seeded nondet-source violations for the ceio_lint self-test.
// Every line marked "violation" below must be reported; the suppressed one
// must not. Line numbers are pinned by fixtures/expected_findings.txt — keep
// edits append-only or regenerate the expectations.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <set>

namespace fixture {

int seed_from_entropy() {
  std::random_device rd;  // violation: entropy source
  return static_cast<int>(rd());
}

int roll() { return rand() % 6; }  // violation: ambient RNG state

long stamp() { return time(nullptr); }  // violation: wall clock

long wall_ns() {
  auto now = std::chrono::system_clock::now();  // violation: wall clock
  return now.time_since_epoch().count();
}

struct Obj {
  int v = 0;
};

std::map<Obj*, int> by_addr;  // violation: pointer-keyed map
std::set<const Obj*> seen;    // violation: pointer-keyed set

int allowed_roll() {
  return rand() % 6;  // lint: allow-nondet-source (fixture: suppressed)
}

}  // namespace fixture

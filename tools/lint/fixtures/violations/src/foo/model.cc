// Seeded raw-stdout and past-schedule violations.
#include <iostream>

#include "foo/model.h"

namespace fixture {

void Model::tick() {
  std::cout << "tick\n";   // violation: raw-stdout
  std::cerr << "debug\n";  // lint: allow-raw-stdout (fixture: deliberate display)
}

void arm(Scheduler& sched, long t, long delay) {
  sched.schedule_at(t - delay, nullptr);  // violation: past-schedule
  sched.schedule_at(t + delay, nullptr);  // ok: no subtraction
}

}  // namespace fixture

// Seeded cross-domain violations for the ceio_lint self-test: channel
// message types carrying raw pointer/reference members, and a channel whose
// payload type is itself a pointer. GoodBatch and the suppressed handle must
// NOT be reported.
#include <cstdint>
#include <vector>

#include "common/domain_annotations.h"

namespace ceio {

// Minimal stand-in so the fixture parses without the simulator headers.
template <typename T>
class EpochChannel {
 public:
  void push(unsigned long epoch, T v);

 private:
  T slots_[2]{};
};

}  // namespace ceio

namespace fixture {

struct Sample {
  std::uint64_t seq = 0;
  double value = 0.0;
};

struct GoodBatch {
  std::vector<Sample> samples;
};

struct BadBatch {
  std::vector<Sample> samples;
  Sample* origin = nullptr;  // violation: pointer member in a message
};

struct LeakyView {
  const std::vector<Sample>& backing;  // violation: reference member
};

struct AllowedHandle {
  void* opaque = nullptr;  // lint: allow-cross-domain (fixture: suppressed)
};

ceio::EpochChannel<Sample*> bad_channel;  // violation: pointer payload
ceio::EpochChannel<Sample> good_channel;

}  // namespace fixture

CEIO_DOMAIN_MESSAGE(fixture::GoodBatch);
CEIO_DOMAIN_MESSAGE(fixture::BadBatch);
CEIO_DOMAIN_MESSAGE(fixture::LeakyView);
CEIO_DOMAIN_MESSAGE(fixture::AllowedHandle);

#include "net/dctcp_window_stream.h"

#include "net/flow_source.h"

namespace ceio {

DctcpWindowStream::DctcpWindowStream(EventScheduler& sched, const DctcpConfig& config)
    : sched_(sched),
      config_(config),
      rollovers_(sched, [](Nanos, Rollover r) { r.source->roll_window(r.epoch); }) {}

void DctcpWindowStream::push(FlowSource& source, std::uint64_t epoch) {
  rollovers_.push(sched_.now() + config_.window, Rollover{&source, epoch});
}

}  // namespace ceio

// DCTCP window rollovers of every flow source on one scheduler, as one
// stream.
//
// A running FlowSource rolls its DCTCP observation window over once per
// `DctcpConfig::window` (20 µs). As one timer event per source per window
// these rollovers were most of a large run's events: 4,096 flows started
// together re-arm 4,096 timers at the same instants, each paying a far-tier
// insert, a cascade and a fire.
//
// Every source on a scheduler uses the same window length, so its rollovers
// fall due in the order they are pushed (`now + window` on a monotonic
// clock): a CoalescedStream of (source, epoch) items. Each push draws its
// seq from the scheduler exactly where the source's own schedule_after
// would have, so a rollover keeps the (when, seq) key its event had and
// runs at the same point of the global order, while each rollover of a
// same-instant train costs a ring pop and a re-key of the stream's head,
// not a timer (see sim/coalesced_stream.h for why that changes no output).
//
// The stream is the only holder of the window length: sources build their
// Dctcp from config(), so one stream never mixes window lengths (which
// would break its non-decreasing deadlines). A source cannot cancel a
// queued item; stop() bumps the source's epoch instead, and the stale item
// does nothing when it comes due.
#pragma once

#include <cstdint>

#include "net/dctcp.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"

namespace ceio {

class FlowSource;

class DctcpWindowStream {
 public:
  DctcpWindowStream(EventScheduler& sched, const DctcpConfig& config);

  DctcpWindowStream(const DctcpWindowStream&) = delete;
  DctcpWindowStream& operator=(const DctcpWindowStream&) = delete;

  /// The DCTCP parameters of every source on this stream.
  const DctcpConfig& config() const { return config_; }
  /// The scheduler the stream and its sources run on.
  EventScheduler& sched() { return sched_; }

  /// Queues `source`'s next rollover one window from now, tagged `epoch`.
  void push(FlowSource& source, std::uint64_t epoch);

 private:
  struct Rollover {
    FlowSource* source;
    std::uint64_t epoch;
  };

  EventScheduler& sched_;
  DctcpConfig config_;
  CoalescedStream<Rollover> rollovers_;
};

}  // namespace ceio

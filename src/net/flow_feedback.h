// Receiver-to-sender feedback interface.
//
// The receiving datapath reports per-packet and per-message outcomes to the
// flow's sender through this interface. In the single-domain testbed the
// implementation is the FlowSource itself (same scheduler, feedback applied
// after the modelled propagation delay). In sharded runs the sender lives in
// a different event domain, so the datapath talks to a RemoteFeedback proxy
// that forwards the notification through the cross-domain feedback channel —
// datapath code never touches another domain's FlowSource directly.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "nic/packet.h"

namespace ceio {

class FlowFeedback {
 public:
  virtual ~FlowFeedback() = default;

  /// Packet landed in host (or on-NIC) memory; the ECN mark echoes back to
  /// the sender after ~RTT/2.
  virtual void notify_delivered(const Packet& pkt) = 0;

  /// Packet was lost (link queue or RX ring overflow); the sender detects
  /// the loss after ~1 RTT and backs off multiplicatively.
  virtual void notify_dropped(const Packet& pkt) = 0;

  /// Host congestion signal (HostCC kernel module / ShRing backpressure):
  /// reaches the sender after ~RTT/2, treated as an ECN mark.
  virtual void notify_host_congestion() = 0;

  /// Message fully processed at the receiver at time `done`.
  virtual void notify_message_complete(std::uint64_t message_id, Nanos done) = 0;
};

}  // namespace ceio

// Fixture: packet-copy rule — hot delivery APIs must move PacketRef
// handles, not Packet values.
#pragma once

#include <vector>

namespace ceio {

struct Packet;
struct PacketRef;

class HotPath {
 public:
  void deliver(Packet pkt);                       // violation: by-value param
  std::vector<Packet> drain_all();                // violation: vector return
  void absorb(Packet pkt);  // lint: allow-packet-copy (move-sink)
  std::vector<Packet> legacy_drain();  // lint: allow-vector-return lint: allow-packet-copy
  void forward(const Packet& pkt);                // ok: const ref
  void route(PacketRef ref);                      // ok: pooled handle
};

}  // namespace ceio

// CEIO driver facade: the socket-like receive API of paper §5.
//
// Applications that integrate CEIO directly (rather than through the
// testbed's automatic per-flow pump) put their flow into *manual consume*
// mode and pull packets through this facade:
//
//   CeioDriver driver(*bed.ceio(), flow_id);
//   driver.post_recv(16);                  // optional zero-copy buffers
//   PacketBurst batch;                     // caller-owned, never allocates
//   driver.async_recv(batch);              // never waits for slow-path DMA
//   ... process ...
//   for (auto& pkt : batch) driver.complete(pkt);  // releases buffers+credits
//
// `recv` and `async_recv` both return only in-order packets (the SW ring
// guarantee). The difference mirrors the paper: `recv` kicks the slow-path
// drain on demand when the next in-order packet is still in on-NIC memory,
// while `async_recv` keeps the drain running eagerly in the background so a
// later call finds the packets already landed. `complete` is the ownership
// hand-back that advances the ring head — the event CEIO's lazy credit
// release keys on.
#pragma once

#include <cstdint>
#include <vector>

#include "ceio/ceio_datapath.h"

namespace ceio {

class CeioDriver {
 public:
  /// Puts `flow` into manual-consume mode on construction. The flow must be
  /// registered with the datapath (Testbed::add_flow does that).
  CeioDriver(CeioDatapath& datapath, FlowId flow);
  ~CeioDriver();

  CeioDriver(const CeioDriver&) = delete;
  CeioDriver& operator=(const CeioDriver&) = delete;

  /// Fills `out` with in-order packets that have landed in host memory (up
  /// to its remaining room; the burst is caller-owned, so the hot receive
  /// loop never allocates). If the next in-order packet sits in on-NIC
  /// memory, starts the drain (demand-driven, like the blocking recv() in
  /// the paper — in a discrete-event world the "block" is simply: run the
  /// simulator and call again). Returns the number of packets appended.
  std::size_t recv(PacketBurst& out);

  /// Same, but also keeps the slow-path drain armed so future packets land
  /// without a demand kick (the §4.2 asynchronous access optimisation).
  std::size_t async_recv(PacketBurst& out);

  /// Zero-copy support: grants the driver `count` application-owned RX
  /// buffers. Subsequent fast-path DMA for this flow lands in these buffers
  /// (ownership returns to the application with the packet). Returns the
  /// ids assigned to the posted buffers.
  std::vector<BufferId> post_recv(std::size_t count);

  /// Ownership hand-back for one received packet: recycles pool buffers,
  /// advances message progress and (lazily) replenishes credits.
  void complete(const Packet& pkt);

  /// Packets landed and waiting for recv().
  std::size_t pending() const;

  FlowId flow() const { return flow_; }

 private:
  CeioDatapath& datapath_;
  FlowId flow_;
};

}  // namespace ceio

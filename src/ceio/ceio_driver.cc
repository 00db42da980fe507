#include "ceio/ceio_driver.h"

namespace ceio {

CeioDriver::CeioDriver(CeioDatapath& datapath, FlowId flow)
    : datapath_(datapath), flow_(flow) {
  datapath_.set_manual_consume(flow_, true);
}

CeioDriver::~CeioDriver() { datapath_.set_manual_consume(flow_, false); }

std::size_t CeioDriver::recv(PacketBurst& out) {
  const std::size_t n =
      datapath_.driver_recv(flow_, out.tail(), out.room(), /*eager_drain=*/false);
  out.commit(n);
  return n;
}

std::size_t CeioDriver::async_recv(PacketBurst& out) {
  const std::size_t n =
      datapath_.driver_recv(flow_, out.tail(), out.room(), /*eager_drain=*/true);
  out.commit(n);
  return n;
}

std::vector<BufferId> CeioDriver::post_recv(std::size_t count) {
  return datapath_.driver_post_recv(flow_, count);
}

void CeioDriver::complete(const Packet& pkt) { datapath_.driver_complete(flow_, pkt); }

std::size_t CeioDriver::pending() const { return datapath_.driver_pending(flow_); }

}  // namespace ceio

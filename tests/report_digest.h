// A 64-bit digest of per-flow reports, for tests that pin a run's exact
// output: every field of every report in order, doubles by bit pattern, so
// a change in any latency sample, rate or counter moves it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "iopath/testbed.h"

namespace ceio {

inline std::uint64_t report_digest(const std::vector<FlowReport>& reports) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, a byte at a time
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const FlowReport& r : reports) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.kind));
    mix(std::bit_cast<std::uint64_t>(r.mpps));
    mix(std::bit_cast<std::uint64_t>(r.gbps));
    mix(std::bit_cast<std::uint64_t>(r.message_gbps));
    mix(static_cast<std::uint64_t>(r.p50.count()));
    mix(static_cast<std::uint64_t>(r.p99.count()));
    mix(static_cast<std::uint64_t>(r.p999.count()));
    mix(static_cast<std::uint64_t>(r.messages));
    mix(static_cast<std::uint64_t>(r.drops));
  }
  return h;
}

inline std::int64_t total_messages(const std::vector<FlowReport>& reports) {
  std::int64_t n = 0;
  for (const FlowReport& r : reports) n += r.messages;
  return n;
}

}  // namespace ceio

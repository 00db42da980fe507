// Figure 11 — single-flow throughput of the CEIO fast path and slow path vs
// message size, against a raw RDMA write (perftest ib_write_bw comparator).
// The slow path is forced by granting the flow zero credits, exactly as the
// paper does.
#include <cstdio>
#include <string>

#include "apps/raw_rdma.h"
#include "bench/scenarios.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "telemetry/telemetry.h"

using namespace ceio;
using namespace ceio::bench;

namespace {

constexpr Bytes kMessageSizes[] = {Bytes{512}, 1 * kKiB, 2 * kKiB, 4 * kKiB,
                                   8 * kKiB,  16 * kKiB, 64 * kKiB};

double run_bw(SystemKind system, Bytes message, bool force_slow) {
  TestbedConfig tc;
  tc.system = system;
  if (system == SystemKind::kCeio && force_slow) force_slow_path(tc);
  Testbed bed(tc);
  auto& app = bed.make_raw_rdma();
  // 32 outstanding: ib_write_bw keeps a deep posting queue.
  bed.add_flow(rdma_message_flow(message, 32), app);
  harness::settle_and_measure(bed, millis(2), millis(4));
  return bed.aggregate_gbps();
}

// Re-runs one representative configuration (16 KiB messages) with telemetry
// recording on and reports where sampled packets spend their time, fast path
// vs forced slow path. Also writes fig11_paths.timeseries.csv and
// fig11_paths.trace.json (from the slow-path run) for offline inspection.
// Returns false when the recording cannot be written.
bool record_path_hops() {
  std::printf("\nSampled packet paths, CEIO, 16K messages (every 64th segment):\n");
  TablePrinter table({"segment", "fast n", "fast mean(us)", "slow n", "slow mean(us)"});
  constexpr auto kN = static_cast<std::size_t>(PathHop::kCount);
  double mean[2][kN] = {};
  std::int64_t count[2][kN] = {};
  for (int mode = 0; mode < 2; ++mode) {
    const bool force_slow = mode == 1;
    TestbedConfig tc;
    tc.system = SystemKind::kCeio;
    if (force_slow) force_slow_path(tc);
    Testbed bed(tc);
    auto& app = bed.make_raw_rdma();
    bed.add_flow(rdma_message_flow(16 * kKiB, 32), app);
    bed.run_for(millis(1));
    Telemetry& tele = bed.enable_telemetry();
    tele.start_sampling();
    bed.run_for(millis(4));
    tele.set_enabled(false);

    double sum[kN] = {};
    for (const PathRecord& r : tele.paths().records()) {
      bool have_prev = false;
      Nanos prev{0};
      for (std::size_t h = 0; h < kN; ++h) {
        if (!r.seen[h]) continue;
        if (have_prev) {
          sum[h] += static_cast<double>((r.t[h] - prev).count());
          ++count[mode][h];
        }
        prev = r.t[h];
        have_prev = true;
      }
    }
    for (std::size_t h = 0; h < kN; ++h) {
      if (count[mode][h] > 0) mean[mode][h] = sum[h] / static_cast<double>(count[mode][h]) / 1e3;
    }

    if (force_slow) {
      std::string error;
      if (!tele.write_files("fig11_paths", &error)) {
        std::fprintf(stderr, "fig11_paths: %s\n", error.c_str());
        return false;
      }
      std::printf("telemetry: %zu gauge samples -> fig11_paths.timeseries.csv, "
                  "%zu trace events -> fig11_paths.trace.json\n",
                  tele.sampler().rows(), tele.trace().size());
    }
  }
  for (std::size_t h = 1; h < kN; ++h) {
    if (count[0][h] == 0 && count[1][h] == 0) continue;
    table.add_row({std::string("-> ") + to_string(static_cast<PathHop>(h)),
                   std::to_string(count[0][h]), TablePrinter::fmt(mean[0][h], 2),
                   std::to_string(count[1][h]), TablePrinter::fmt(mean[1][h], 2)});
  }
  table.print();
  return true;
}

}  // namespace

int main() {
  std::printf("=== Figure 11: CEIO fast path vs slow path vs ib_write_bw ===\n");
  TablePrinter table({"msg size", "ib_write_bw(Gbps)", "CEIO fast(Gbps)", "CEIO slow(Gbps)",
                      "slow/fast"});
  double worst_gap = 0.0;
  for (const Bytes message : kMessageSizes) {
    const double raw = run_bw(SystemKind::kLegacy, message, false);
    const double fast = run_bw(SystemKind::kCeio, message, false);
    const double slow = run_bw(SystemKind::kCeio, message, true);
    const double ratio = fast > 0 ? slow / fast : 0.0;
    if (message >= 4 * kKiB) worst_gap = std::max(worst_gap, 1.0 - ratio);
    std::string label = message >= kKiB ? std::to_string(message / kKiB) + "K"
                                        : std::to_string(message.count()) + "B";
    table.add_row({label, TablePrinter::fmt(raw), TablePrinter::fmt(fast),
                   TablePrinter::fmt(slow), TablePrinter::fmt(ratio, 2)});
  }
  table.print();
  std::printf("slow-path gap for messages >= 4K: %.0f%% (paper: under 22%%)\n",
              worst_gap * 100.0);
  return record_path_hops() ? 0 : 1;
}

// Measurement primitives: windowed throughput meters and log-bucketed
// latency histograms.
//
// Every experiment in bench/ reports through these types, so they are written
// for predictable memory use: `LatencyHistogram` uses fixed log-spaced
// buckets (HdrHistogram-style, coarse) allocated lazily in chunks — a flow
// whose latencies cluster in one band (they all do) pays for one chunk, not
// the full range.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace ceio {

/// Derived-rate guard for reporting: ops / seconds, but never NaN or inf.
/// Zero-op, zero-time and non-finite inputs all yield 0.0, so empty runs
/// serialize as honest zeros instead of poisoning JSON output.
inline double safe_rate(double ops, double seconds) {
  if (!std::isfinite(ops) || !std::isfinite(seconds)) return 0.0;
  if (ops <= 0.0 || seconds <= 0.0) return 0.0;
  return ops / seconds;
}

/// Counts bytes/packets; rates are the totals over a caller-given interval
/// (a measurement window: reset() at its start).
class RateMeter {
 public:
  void record(Bytes bytes, std::int64_t packets = 1);

  /// Average over [t_begin, t_end]. Zero if the interval is empty.
  double mpps(Nanos t_begin, Nanos t_end) const;
  double gbps(Nanos t_begin, Nanos t_end) const;

  Bytes total_bytes() const { return bytes_; }
  std::int64_t total_packets() const { return packets_; }

  void reset();

 private:
  Bytes bytes_{0};
  std::int64_t packets_ = 0;
};

/// Fixed log-spaced latency histogram covering [1 ns, ~17 s] with
/// `kSubBuckets` linear sub-buckets per power of two. Bucket storage is
/// allocated lazily in 64-bucket chunks (4 octaves each): there is one
/// histogram per flow, and at million-flow scale the eager 4.5 KiB bucket
/// array dominated per-flow memory while every flow's latencies landed in
/// a chunk or two.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  void add(Nanos latency);
  std::int64_t count() const { return total_; }

  /// Percentile in [0, 100]; returns a representative latency (bucket upper
  /// bound), 0 when empty.
  Nanos percentile(double p) const;

  Nanos p50() const { return percentile(50.0); }
  Nanos p99() const { return percentile(99.0); }
  Nanos p999() const { return percentile(99.9); }
  double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }

  void clear();

 private:
  static constexpr int kLog2Max = 35;     // covers up to ~34 s
  static constexpr int kSubBuckets = 16;  // ~6% relative resolution
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kLog2Max) * kSubBuckets;
  static constexpr std::size_t kChunkBuckets = 64;
  static constexpr std::size_t kNumChunks =
      (kNumBuckets + kChunkBuckets - 1) / kChunkBuckets;
  std::size_t bucket_index(Nanos v) const;
  Nanos bucket_upper(std::size_t idx) const;

  // Lazily allocated, zero-initialised chunks; a null chunk is all zeros.
  std::array<std::unique_ptr<std::int64_t[]>, kNumChunks> chunks_;
  std::int64_t total_ = 0;
  double sum_ = 0.0;
};

/// Helper for bench output: a fixed-width table printer that produces the
/// rows/series the paper's figures and tables report.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Renders to stdout with aligned columns and a separator under the header.
  void print() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ceio

#include "common/stats.h"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace ceio {

void RateMeter::record(Nanos now, Bytes bytes, std::int64_t packets) {
  bytes_ += bytes;
  packets_ += packets;
  if (first_ < Nanos{0}) first_ = now;
  last_ = std::max(last_, now);
}

double RateMeter::mpps(Nanos t_begin, Nanos t_end) const {
  const Nanos span = t_end - t_begin;
  if (span <= Nanos{0} || packets_ == 0) return 0.0;
  return static_cast<double>(packets_) / to_seconds(span) / 1e6;
}

double RateMeter::gbps(Nanos t_begin, Nanos t_end) const {
  const Nanos span = t_end - t_begin;
  if (span <= Nanos{0} || bytes_ == Bytes{0}) return 0.0;
  return to_gbps(rate_of(bytes_, span));
}

void RateMeter::reset() {
  bytes_ = Bytes{};
  packets_ = 0;
  first_ = Nanos{-1};
  last_ = Nanos{-1};
}

std::size_t LatencyHistogram::bucket_index(Nanos v) const {
  if (v < Nanos{1}) v = Nanos{1};
  int log2 = 0;
  auto u = static_cast<std::uint64_t>(v.count());
  while (u >= 2) {
    u >>= 1;
    ++log2;
  }
  if (log2 >= kLog2Max) log2 = kLog2Max - 1;
  // Linear sub-bucket within [2^log2, 2^(log2+1)).
  const Nanos base{std::int64_t{1} << log2};
  const Nanos sub_width = std::max(base / kSubBuckets, Nanos{1});
  auto sub = static_cast<std::size_t>((v - base) / sub_width);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return static_cast<std::size_t>(log2) * kSubBuckets + sub;
}

Nanos LatencyHistogram::bucket_upper(std::size_t idx) const {
  const auto log2 = static_cast<int>(idx / kSubBuckets);
  const auto sub = static_cast<std::int64_t>(idx % kSubBuckets);
  const Nanos base{std::int64_t{1} << log2};
  const Nanos sub_width = std::max(base / kSubBuckets, Nanos{1});
  return base + sub_width * (sub + 1) - Nanos{1};
}

void LatencyHistogram::add(Nanos latency) {
  const std::size_t idx = bucket_index(latency);
  auto& chunk = chunks_[idx / kChunkBuckets];
  if (!chunk) chunk = std::make_unique<std::int64_t[]>(kChunkBuckets);  // zeroed
  ++chunk[idx % kChunkBuckets];
  ++total_;
  sum_ += static_cast<double>(latency.count());
}

Nanos LatencyHistogram::percentile(double p) const {
  if (total_ == 0) return Nanos{};
  const auto target = static_cast<std::int64_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_)));
  std::int64_t seen = 0;
  for (std::size_t c = 0; c < kNumChunks; ++c) {
    if (!chunks_[c]) continue;  // a null chunk is all zeros: nothing to count
    for (std::size_t i = 0; i < kChunkBuckets; ++i) {
      seen += chunks_[c][i];
      if (seen >= target) return bucket_upper(c * kChunkBuckets + i);
    }
  }
  return bucket_upper(kNumBuckets - 1);
}

void LatencyHistogram::clear() {
  // Zero in place rather than freeing: clear() is the warmup->measurement
  // reset, and the next add() almost always lands in the same band — a
  // freed chunk would be re-allocated inside the measured window (the
  // zero-allocation test pins this).
  for (auto& chunk : chunks_) {
    if (chunk) std::fill(chunk.get(), chunk.get() + kChunkBuckets, 0);
  }
  total_ = 0;
  sum_ = 0.0;
}

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  // TablePrinter exists to put tables on the console for benches and tools.
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());  // lint: allow-raw-stdout
    }
    std::printf("\n");  // lint: allow-raw-stdout
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());  // lint: allow-raw-stdout
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace ceio

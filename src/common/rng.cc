#include "common/rng.h"

#include <cmath>

namespace ceio {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // Jump the SplitMix64 stream directly to its (index+1)-th state — the
  // generator's state advance is a fixed increment, so this is exactly the
  // (index+1)-th output of a stream seeded at `base`.
  std::uint64_t state = base + index * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // xoshiro must not be seeded with all zeros.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::uniform_real(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double Rng::exponential(double mean) {
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return next_double() < p; }

ZipfTable::ZipfTable(std::size_t n, double s) : skew_(s), cdf_(n), guide_(n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  std::size_t i = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double u = static_cast<double>(j) / static_cast<double>(n);
    while (i + 1 < n && cdf_[i] < u) ++i;
    guide_[j] = i;
  }
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n == 0) return 0;
  if (s <= 0.0) return static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(n) - 1));
  if (n != zipf_.size() || s != zipf_.skew()) zipf_ = ZipfTable(n, s);
  return zipf_.sample(next_double());
}

}  // namespace ceio

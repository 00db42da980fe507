// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic behaviour in the simulation (packet interarrival jitter, key
// popularity, burst timing) flows through `Rng` so that every experiment is
// reproducible from a single seed. The generator is xoshiro256**, seeded via
// SplitMix64, which is fast and has no observable bias for our use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ceio {

/// Derives the `index`-th child seed from a base seed: the (index+1)-th
/// output of a SplitMix64 stream seeded at `base`. Children of one base are
/// mutually uncorrelated and distinct from the base itself, so a sweep can
/// hand run i the seed `derive_seed(cfg.seed, i)` and every run gets an
/// independent stream while the whole sweep stays reproducible from one
/// seed.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// Inverse-CDF sampler for the Zipf law over [0, n) with skew s > 0:
/// sample(u) is the first index whose CDF entry is >= u, or n - 1 when none
/// is — exactly what a bisection over the CDF returns. A guide table makes
/// it O(1) expected: guide_[j] is the answer for u = j / n, so the search
/// starts at guide_[min(n - 1, floor(u * n))] and steps down, then up, to
/// the first entry >= u (the steps absorb rounding in u * n).
class ZipfTable {
 public:
  ZipfTable() = default;
  ZipfTable(std::size_t n, double s);

  std::size_t size() const { return cdf_.size(); }
  double skew() const { return skew_; }
  /// Normalised cumulative weights, non-decreasing, ending at 1.
  const std::vector<double>& cdf() const { return cdf_; }

  /// Index for a uniform draw `u` in [0, 1). Precondition: size() > 0.
  std::size_t sample(double u) const {
    const std::size_t n = cdf_.size();
    const auto j = static_cast<std::size_t>(u * static_cast<double>(n));
    std::size_t i = guide_[j < n ? j : n - 1];
    while (i > 0 && cdf_[i - 1] >= u) --i;
    while (i + 1 < n && cdf_[i] < u) ++i;
    return i;
  }

 private:
  double skew_ = -1.0;
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Zipf-distributed index in [0, n) with skew `s` (s == 0 -> uniform).
  /// Used for key popularity in the KV workload.
  std::size_t zipf(std::size_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  // Cached Zipf table: rebuilt only when (n, s) changes.
  ZipfTable zipf_;
};

}  // namespace ceio

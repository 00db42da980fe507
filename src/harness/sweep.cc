#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "config/config_ops.h"

namespace ceio::harness {

bool parse_axis(std::string_view text, SweepAxis* axis, std::string* error) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    *error = "expected 'key=v1,v2,...', got '" + std::string(text) + "'";
    return false;
  }
  SweepAxis parsed;
  parsed.key = std::string(config::codec_detail::trim(text.substr(0, eq)));
  std::string_view rest = text.substr(eq + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    parsed.values.emplace_back(config::codec_detail::trim(item));
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (parsed.values.empty()) {
    *error = "axis '" + parsed.key + "' has no values";
    return false;
  }
  *axis = std::move(parsed);
  return true;
}

namespace {

/// Applies one (key, value) coordinate to a spec. The reserved `run` axis
/// derives the per-run seed instead of addressing a reflected field.
bool apply_coordinate(ExperimentSpec& spec, const std::string& key, const std::string& value,
                      std::uint64_t base_seed, std::string* error) {
  if (key == "run") {
    std::uint64_t run = 0;
    if (!config::decode_value(value, &run, error)) {
      *error = "run axis: " + *error;
      return false;
    }
    spec.testbed.seed = derive_seed(base_seed, run);
    return true;
  }
  return config::set(spec, key, value, error);
}

}  // namespace

bool expand_sweep(const ExperimentSpec& base, const std::vector<SweepAxis>& axes,
                  std::vector<ExperimentSpec>* specs,
                  std::vector<std::vector<std::pair<std::string, std::string>>>* coordinates,
                  std::string* error) {
  specs->clear();
  coordinates->clear();
  std::size_t total = 1;
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      *error = "axis '" + axis.key + "' has no values";
      return false;
    }
    total *= axis.values.size();
  }
  const std::uint64_t base_seed = base.testbed.seed;
  for (std::size_t index = 0; index < total; ++index) {
    ExperimentSpec spec = base;
    std::vector<std::pair<std::string, std::string>> coord;
    // Mixed-radix decode of `index`, last axis fastest (nested-loop order).
    std::size_t remainder = index;
    std::size_t radix_product = total;
    for (const auto& axis : axes) {
      radix_product /= axis.values.size();
      const std::size_t digit = remainder / radix_product;
      remainder %= radix_product;
      const std::string& value = axis.values[digit];
      if (!apply_coordinate(spec, axis.key, value, base_seed, error)) return false;
      coord.emplace_back(axis.key, value);
    }
    specs->push_back(std::move(spec));
    coordinates->push_back(std::move(coord));
  }
  return true;
}

std::vector<SweepRow> run_sweep(const ExperimentSpec& base, const std::vector<SweepAxis>& axes,
                                int jobs) {
  std::vector<ExperimentSpec> specs;
  std::vector<std::vector<std::pair<std::string, std::string>>> coordinates;
  std::string error;
  if (!expand_sweep(base, axes, &specs, &coordinates, &error)) {
    throw std::invalid_argument("sweep expansion failed: " + error);
  }

  std::vector<SweepRow> rows(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rows[i].index = i;
    rows[i].coordinates = std::move(coordinates[i]);
  }

  std::size_t workers = jobs >= 1 ? static_cast<std::size_t>(jobs)
                                  : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, specs.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) rows[i].result = run_experiment(specs[i]);
    return rows;
  }

  // Work-stealing by atomic counter: each worker claims the next unclaimed
  // index and writes only rows[i] — no shared mutable simulator state (each
  // run_experiment builds its own Testbed). A run that throws stops further
  // claims; after the join the lowest failed index's exception is rethrown.
  // Every lower index was claimed before it and so ran, which makes that
  // the exception the serial loop above throws.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex failure_mu;
  std::size_t failed_index = specs.size();
  std::exception_ptr failure;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size()) return;
        try {
          rows[i].result = run_experiment(specs[i]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mu);
          if (i < failed_index) {
            failed_index = i;
            failure = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
  return rows;
}

}  // namespace ceio::harness

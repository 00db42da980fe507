// SweepRunner: expand sweep axes into independent experiments and run them
// on a thread pool.
//
// A sweep is the cartesian product of axes, each axis one reflected config
// key with a list of values (`llc.ddio_ways=2,4,6`). The reserved axis name
// `run` is a repetition axis: its values are run numbers, and run number r
// replaces the spec's seed with derive_seed(base_seed, r) — so `run=0..15`
// gives 16 statistically independent repetitions reproducible from the one
// base seed, while plain config axes leave the seed alone (same-seed
// comparisons across parameter values, the way the paper's figures sweep).
//
// Determinism contract: each expanded spec is a fully independent Testbed
// (own Rng, own EventScheduler), workers only write their own row, and rows
// are returned ordered by expansion index — so results (and any output
// rendered from them) are byte-identical at every --jobs level. The last
// axis varies fastest, matching nested-loop reading order.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace ceio::harness {

struct SweepAxis {
  std::string key;                  // reflected config path, or "run"
  std::vector<std::string> values;  // encoded values (codec formats)
};

/// Parses "key=v1,v2,v3" into an axis. Returns false on empty key/values.
bool parse_axis(std::string_view text, SweepAxis* axis, std::string* error);

struct SweepRow {
  std::size_t index = 0;  // expansion index (row order)
  /// (key, value) per axis, in axis order; the row's coordinates.
  std::vector<std::pair<std::string, std::string>> coordinates;
  RunResult result;
};

/// Expands `axes` over `base` (applying each coordinate via config::set and
/// deriving per-run seeds for the `run` axis) and returns the specs in
/// expansion order. Returns false and fills *error on an invalid key/value.
bool expand_sweep(const ExperimentSpec& base, const std::vector<SweepAxis>& axes,
                  std::vector<ExperimentSpec>* specs,
                  std::vector<std::vector<std::pair<std::string, std::string>>>* coordinates,
                  std::string* error);

/// Runs the expanded sweep on `jobs` worker threads (jobs < 1 uses
/// std::thread::hardware_concurrency). Rows come back ordered by expansion
/// index regardless of completion order. Throws std::invalid_argument when
/// the axes do not expand; when a run throws, every worker stops and the
/// lowest failed index's exception is rethrown, at any `jobs`.
std::vector<SweepRow> run_sweep(const ExperimentSpec& base, const std::vector<SweepAxis>& axes,
                                int jobs);

}  // namespace ceio::harness

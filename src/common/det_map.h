// Deterministic associative containers and sorted-snapshot helpers.
//
// The repo's headline correctness property is bitwise-identical reports at
// any shard count (DESIGN.md "Determinism rules"). std::unordered_map/set
// iteration order is an artifact of the hash function, bucket count and
// operation history — deterministic within one binary, but arbitrary, and a
// refactor (or a libstdc++ upgrade) silently reorders it. Any unordered
// iteration whose order can reach a report, a credit-assignment decision or
// a buffer-release sequence is therefore a reproducibility landmine.
//
// Two remedies, matching the two usage patterns:
//
//   det::OrderedMap / det::OrderedSet
//       Key-ordered containers (std::map/std::set with intent-revealing
//       names) for state that is *iterated* on model or report paths. Use
//       these when lookups are not per-packet hot, or when the map is also
//       mutated during iteration (stable iterators).
//
//   det::for_sorted / det::sorted_keys
//       Sorted-snapshot iteration over a container that stays hash-based
//       for O(1) per-packet lookups. The snapshot costs O(n log n) per
//       call — fine for rare control-plane sweeps, wrong for hot loops.
//
// The unordered-iter rule of tools/lint/ceio_lint.py enforces this: iterating
// a std::unordered_* container is a finding unless the site is converted to
// one of these helpers or carries an explicit `// lint: allow-unordered-iter`
// suppression with a justification.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace ceio::det {

/// Key-ordered map: iteration order is the key order, always.
template <typename K, typename V, typename Cmp = std::less<K>>
using OrderedMap = std::map<K, V, Cmp>;

/// Key-ordered set.
template <typename K, typename Cmp = std::less<K>>
using OrderedSet = std::set<K, Cmp>;

/// Returns the container's keys in ascending order. Works on any map-like
/// container (ordered or not); use it to make a one-off iteration over a
/// hash map deterministic without changing the container.
template <typename Map>
std::vector<typename Map::key_type> sorted_keys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& kv : map) keys.push_back(kv.first);  // lint: allow-unordered-iter (order erased by the sort below)
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Invokes `fn(key, value)` over `map` in ascending key order, regardless of
/// the container's own iteration order. The value reference is looked up
/// per key, so `fn` may erase *other* entries but must not erase its own.
template <typename Map, typename Fn>
void for_sorted(Map& map, Fn&& fn) {
  for (const auto& key : sorted_keys(map)) {
    const auto it = map.find(key);
    if (it != map.end()) fn(it->first, it->second);
  }
}

}  // namespace ceio::det

// Deterministic associative container.
//
// The repo's headline correctness property is bitwise-identical reports at
// any shard count (DESIGN.md "Determinism rules"). std::unordered_map/set
// iteration order is an artifact of the hash function, bucket count and
// operation history — deterministic within one binary, but arbitrary, and a
// refactor (or a libstdc++ upgrade) silently reorders it. Any unordered
// iteration whose order can reach a report, a credit-assignment decision or
// a buffer-release sequence is therefore a reproducibility landmine.
//
// State that is *iterated* on model or report paths lives in a key-ordered
// container: det::OrderedMap (std::map with an intent-revealing name), or
// FlowTable (common/flow_table.h) for per-flow state looked up per packet.
// Hash containers stay for state that is only ever looked up, never
// iterated.
//
// The unordered-iter rule of tools/lint/ceio_lint.py enforces this:
// iterating a std::unordered_* container is a finding unless the site
// carries an explicit `// lint: allow-unordered-iter` suppression with a
// justification.
#pragma once

#include <functional>
#include <map>

namespace ceio::det {

/// Key-ordered map: iteration order is the key order, always.
template <typename K, typename V, typename Cmp = std::less<K>>
using OrderedMap = std::map<K, V, Cmp>;

}  // namespace ceio::det

// Exact LRU stack-distance analysis.
//
// The stack distance of a request is the number of *distinct* objects
// referenced since the previous reference to the same object — position in
// an infinite LRU stack. Its distribution is the canonical measure of
// temporal locality (and directly gives the hit ratio of an LRU cache of
// any size: hits = requests with distance < capacity). Used to validate the
// ProWGen locality knobs and by `webcache_cli analyze`.
//
// Computed in O(R log R) with a Fenwick tree over request positions
// (Bennett & Kruskal's classic algorithm).
#pragma once

#include <cstdint>
#include <vector>

#include "workload/trace.hpp"

namespace webcache::workload {

/// Sentinel distance for first references (infinite stack depth).
inline constexpr std::uint64_t kColdMiss = ~0ULL;

/// Per-request stack distances, aligned with trace.requests. First
/// references get kColdMiss.
[[nodiscard]] std::vector<std::uint64_t> lru_stack_distances(const Trace& trace);

struct StackDistanceSummary {
  std::uint64_t reuses = 0;        ///< requests with a finite distance
  std::uint64_t cold_misses = 0;   ///< first references
  double mean = 0.0;               ///< mean finite distance
  std::uint64_t median = 0;        ///< median finite distance
  std::uint64_t p90 = 0;           ///< 90th percentile finite distance
};

[[nodiscard]] StackDistanceSummary summarize_stack_distances(
    const std::vector<std::uint64_t>& distances);

/// Hit ratio an LRU cache of `capacity` objects would achieve on the trace
/// (computed exactly from the distance distribution, no simulation).
[[nodiscard]] double lru_hit_ratio(const std::vector<std::uint64_t>& distances,
                                   std::size_t capacity);

}  // namespace webcache::workload

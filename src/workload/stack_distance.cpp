#include "workload/stack_distance.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/fenwick.hpp"

namespace webcache::workload {

std::vector<std::uint64_t> lru_stack_distances(const Trace& trace) {
  const std::size_t n = trace.requests.size();
  std::vector<std::uint64_t> distances(n, kColdMiss);

  // occupied[t] = 1 iff position t holds the *most recent* reference of
  // some object. The distance of a re-reference at time t to an object last
  // seen at time s is the number of occupied positions in (s, t) — i.e. the
  // count of distinct objects touched in between.
  // Sized from `distances`, whose allocation bounds it: from `n`, g++ 12 at
  // -O3 warns the tree's allocation may exceed the maximum object size.
  FenwickTree occupied(distances.size());
  std::unordered_map<ObjectNum, std::size_t> last_seen;
  last_seen.reserve(trace.universe);

  for (std::size_t t = 0; t < n; ++t) {
    const ObjectNum object = trace.requests[t].object;
    if (const auto it = last_seen.find(object); it != last_seen.end()) {
      const std::size_t s = it->second;
      distances[t] = occupied.prefix_sum(t) - occupied.prefix_sum(s + 1);
      occupied.add(s, -1);  // that position is no longer the most recent
      it->second = t;
    } else {
      last_seen.emplace(object, t);
    }
    occupied.add(t, 1);
  }
  return distances;
}

StackDistanceSummary summarize_stack_distances(const std::vector<std::uint64_t>& distances) {
  StackDistanceSummary s;
  std::vector<std::uint64_t> finite;
  finite.reserve(distances.size());
  double total = 0.0;
  for (const auto d : distances) {
    if (d == kColdMiss) {
      ++s.cold_misses;
    } else {
      finite.push_back(d);
      total += static_cast<double>(d);
    }
  }
  s.reuses = finite.size();
  if (finite.empty()) return s;
  s.mean = total / static_cast<double>(finite.size());
  std::sort(finite.begin(), finite.end());
  s.median = finite[finite.size() / 2];
  s.p90 = finite[std::min(finite.size() - 1, finite.size() * 9 / 10)];
  return s;
}

double lru_hit_ratio(const std::vector<std::uint64_t>& distances, std::size_t capacity) {
  if (distances.empty()) return 0.0;
  std::uint64_t hits = 0;
  for (const auto d : distances) {
    if (d != kColdMiss && d < capacity) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(distances.size());
}

}  // namespace webcache::workload

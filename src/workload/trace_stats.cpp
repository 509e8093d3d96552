#include "workload/trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace webcache::workload {

TraceStats analyze(const TraceSource& source) {
  TraceStats s;
  s.total_requests = source.size();
  s.distinct_objects = source.distinct_objects();
  s.frequency.assign(s.distinct_objects, 0);

  for_each_window(source, [&s](std::span<const Request> win) {
    for (const auto& r : win) {
      if (r.object >= s.distinct_objects) {
        throw std::invalid_argument("analyze: request references object outside the universe");
      }
      ++s.frequency[r.object];
    }
  });

  std::uint64_t referenced = 0;
  for (const auto f : s.frequency) {
    if (f == 0) continue;
    ++referenced;
    if (f == 1) {
      ++s.one_timers;
    } else {
      ++s.infinite_cache_size;
    }
    s.max_frequency = std::max(s.max_frequency, f);
  }
  s.mean_frequency =
      referenced == 0 ? 0.0
                      : static_cast<double>(s.total_requests) / static_cast<double>(referenced);

  // Top-decile share: sort a copy of the counts descending.
  std::vector<std::uint64_t> sorted = s.frequency;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::size_t decile = std::max<std::size_t>(1, sorted.size() / 10);
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < decile; ++i) top += sorted[i];
  s.top_decile_share = s.total_requests == 0
                           ? 0.0
                           : static_cast<double>(top) / static_cast<double>(s.total_requests);
  return s;
}

std::vector<double> per_proxy_frequency(const TraceStats& stats, unsigned cluster_size) {
  if (cluster_size == 0) {
    throw std::invalid_argument("per_proxy_frequency: cluster_size must be >= 1");
  }
  std::vector<double> f(stats.frequency.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = static_cast<double>(stats.frequency[i]) / static_cast<double>(cluster_size);
  }
  return f;
}

double estimate_zipf_alpha(const TraceStats& stats) {
  // Fit log(freq) = c - alpha * log(rank) over multi-referenced objects.
  std::vector<std::uint64_t> sorted;
  sorted.reserve(stats.frequency.size());
  for (const auto f : stats.frequency) {
    if (f > 1) sorted.push_back(f);
  }
  if (sorted.size() < 2) return 0.0;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());

  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(static_cast<double>(sorted[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  const double slope = (n * sxy - sx * sy) / denom;
  return -slope;
}

}  // namespace webcache::workload

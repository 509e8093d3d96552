// Trace characterization: the statistics the paper's experiment setup is
// defined in terms of — most importantly the "infinite cache size" (number
// of distinct objects accessed more than once), which every cache-size axis
// in the evaluation is expressed as a percentage of.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/trace_source.hpp"

namespace webcache::workload {

struct TraceStats {
  std::uint64_t total_requests = 0;
  ObjectNum distinct_objects = 0;
  ObjectNum one_timers = 0;          ///< objects referenced exactly once
  /// The paper's "infinite cache size": distinct objects accessed more than
  /// once. A cache this large never takes a capacity miss on a re-reference.
  ObjectNum infinite_cache_size = 0;
  std::uint64_t max_frequency = 0;
  double mean_frequency = 0.0;
  /// Share of all requests going to the top 10% most popular objects — a
  /// quick skew indicator.
  double top_decile_share = 0.0;
  /// Per-object request counts, indexed by object id.
  std::vector<std::uint64_t> frequency;
};

/// Single pass over the stream; working memory is O(distinct objects),
/// never O(requests), so analysis handles out-of-core traces.
[[nodiscard]] TraceStats analyze(const TraceSource& source);

/// Per-proxy frequency table for the cost-benefit coordinator: global counts
/// scaled by 1/cluster_size (clients at different proxies are statistically
/// identical, paper assumption 2).
[[nodiscard]] std::vector<double> per_proxy_frequency(const TraceStats& stats,
                                                      unsigned cluster_size);

/// Least-squares estimate of the Zipf slope alpha from the frequency-vs-rank
/// line in log-log space, over objects referenced more than once. Used by
/// tests and `webcache_cli analyze`.
[[nodiscard]] double estimate_zipf_alpha(const TraceStats& stats);

}  // namespace webcache::workload

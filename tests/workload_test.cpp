#include "workload/prowgen.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stats.hpp"
#include "workload/ucb_like.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

namespace webcache::workload {
namespace {

ProWGenConfig small_config() {
  ProWGenConfig c;
  c.total_requests = 50'000;
  c.distinct_objects = 2'000;
  c.seed = 11;
  return c;
}

TEST(ProWGen, GeneratesExactlyConfiguredRequests) {
  const auto trace = ProWGen(small_config()).generate();
  EXPECT_EQ(trace.size(), 50'000u);
  EXPECT_EQ(trace.universe, 2'000u);
}

TEST(ProWGen, EveryObjectIsReferencedAndCountsAreExact) {
  const auto cfg = small_config();
  const auto trace = ProWGen(cfg).generate();
  const auto stats = analyze(trace);
  // Every object in the universe gets at least one reference.
  EXPECT_EQ(stats.one_timers + stats.infinite_cache_size, cfg.distinct_objects);
  EXPECT_EQ(stats.total_requests, cfg.total_requests);
}

TEST(ProWGen, OneTimerFractionMatchesConfig) {
  const auto cfg = small_config();
  const auto stats = analyze(ProWGen(cfg).generate());
  // 50% of 2000 = 1000 one-timers, exactly (counts are assigned, not drawn).
  EXPECT_EQ(stats.one_timers, 1000u);
}

TEST(ProWGen, MultiReferencedObjectsHaveAtLeastTwo) {
  const auto cfg = small_config();
  const auto stats = analyze(ProWGen(cfg).generate());
  const ObjectNum multi = cfg.distinct_objects - stats.one_timers;
  for (ObjectNum o = 0; o < multi; ++o) {
    ASSERT_GE(stats.frequency[o], 2u) << "object " << o;
  }
}

TEST(ProWGen, PopularityIsZipfLike) {
  auto cfg = small_config();
  cfg.total_requests = 500'000;
  cfg.distinct_objects = 5'000;
  cfg.zipf_alpha = 0.8;
  const auto stats = analyze(ProWGen(cfg).generate());
  const double estimated = estimate_zipf_alpha(stats);
  // The floor-of-2 clamp flattens the tail, so allow generous tolerance.
  EXPECT_NEAR(estimated, 0.8, 0.25);
  // Object 0 is by construction the most popular.
  EXPECT_EQ(stats.max_frequency,
            *std::max_element(stats.frequency.begin(), stats.frequency.end()));
  EXPECT_EQ(stats.frequency[0], stats.max_frequency);
}

TEST(ProWGen, HigherAlphaConcentratesMass) {
  auto lo = small_config();
  lo.zipf_alpha = 0.3;
  auto hi = small_config();
  hi.zipf_alpha = 1.2;
  const auto stats_lo = analyze(ProWGen(lo).generate());
  const auto stats_hi = analyze(ProWGen(hi).generate());
  EXPECT_GT(stats_hi.top_decile_share, stats_lo.top_decile_share);
}

TEST(ProWGen, DeterministicForEqualSeeds) {
  const auto a = ProWGen(small_config()).generate();
  const auto b = ProWGen(small_config()).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.requests[i].object, b.requests[i].object);
    ASSERT_EQ(a.requests[i].client, b.requests[i].client);
  }
}

TEST(ProWGen, DifferentSeedsDiffer) {
  auto cfg = small_config();
  const auto a = ProWGen(cfg).generate();
  cfg.seed = 12;
  const auto b = ProWGen(cfg).generate();
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.requests[i].object != b.requests[i].object) ++differing;
  }
  EXPECT_GT(differing, a.size() / 2);
}

TEST(ProWGen, ClientIdsWithinRange) {
  auto cfg = small_config();
  cfg.clients = 37;
  const auto trace = ProWGen(cfg).generate();
  for (const auto& r : trace.requests) {
    ASSERT_LT(r.client, 37u);
  }
}

/// Mean LRU-stack reuse distance of the stream: the locality measure the
/// temporal knobs must move.
double mean_reuse_distance(const Trace& trace) {
  std::unordered_map<ObjectNum, std::size_t> last_seen;
  // Approximate stack distance by time distance (sufficient for a
  // monotonicity check on otherwise-identical configurations).
  double total = 0.0;
  std::uint64_t reuses = 0;
  for (std::size_t t = 0; t < trace.requests.size(); ++t) {
    const auto o = trace.requests[t].object;
    if (const auto it = last_seen.find(o); it != last_seen.end()) {
      total += static_cast<double>(t - it->second);
      ++reuses;
    }
    last_seen[o] = t;
  }
  return reuses == 0 ? 0.0 : total / static_cast<double>(reuses);
}

TEST(ProWGen, TemporalAmplifierTightensReuseDistances) {
  // Test the mechanism at full recency bias; the shipped default is milder.
  auto weak = small_config();
  weak.temporal_amplifier = 1.0;
  weak.recency_bias = 0.5;
  auto strong = small_config();
  strong.temporal_amplifier = 20.0;
  strong.recency_bias = 0.5;
  const double weak_dist = mean_reuse_distance(ProWGen(weak).generate());
  const double strong_dist = mean_reuse_distance(ProWGen(strong).generate());
  EXPECT_LT(strong_dist, weak_dist * 0.8);
}

TEST(ProWGen, LargerStackStrengthensTemporalLocality) {
  // The paper's reading of the knob: a larger LRU stack means more objects
  // are accessed with temporal locality, so re-references arrive sooner and
  // a single cache (NC) becomes more effective (Section 5.2, Fig. 4).
  auto small_stack = small_config();
  small_stack.lru_stack_fraction = 0.05;
  auto large_stack = small_config();
  large_stack.lru_stack_fraction = 0.6;
  const double d_small = mean_reuse_distance(ProWGen(small_stack).generate());
  const double d_large = mean_reuse_distance(ProWGen(large_stack).generate());
  EXPECT_LT(d_large, d_small);
}

TEST(ProWGen, SizesAreUnitByDefault) {
  const auto trace = ProWGen(small_config()).generate();
  for (const auto& r : trace.requests) ASSERT_EQ(r.size, 1u);
}

TEST(ProWGen, RejectsInvalidConfigs) {
  auto c = small_config();
  c.distinct_objects = 0;
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
  c = small_config();
  c.one_timer_fraction = 1.5;
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
  c = small_config();
  c.total_requests = 10;  // can't give 1000 multi objects 2 refs each
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
  c = small_config();
  c.lru_stack_fraction = 0.0;
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
  c = small_config();
  c.temporal_amplifier = 0.5;
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
  c = small_config();
  c.clients = 0;
  EXPECT_THROW(ProWGen{c}, std::invalid_argument);
}

// --- trace I/O -----------------------------------------------------------------

TEST(TraceIO, RoundTripsThroughText) {
  const auto trace = ProWGen(small_config()).generate();
  std::stringstream buffer;
  write_trace(buffer, trace);
  const auto loaded = read_trace(buffer);
  ASSERT_EQ(loaded.size(), trace.size());
  EXPECT_EQ(loaded.universe, trace.universe);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(loaded.requests[i].time, trace.requests[i].time);
    ASSERT_EQ(loaded.requests[i].client, trace.requests[i].client);
    ASSERT_EQ(loaded.requests[i].object, trace.requests[i].object);
    ASSERT_EQ(loaded.requests[i].size, trace.requests[i].size);
  }
}

TEST(TraceIO, ReadsUrlsAndAssignsDenseIds) {
  std::stringstream in(
      "# a comment\n"
      "0 1 http://a.com/x 100\n"
      "1 2 http://a.com/y\n"
      "2 1 http://a.com/x 100\n");
  const auto trace = read_trace(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.universe, 2u);
  EXPECT_EQ(trace.requests[0].object, trace.requests[2].object);
  EXPECT_NE(trace.requests[0].object, trace.requests[1].object);
  EXPECT_EQ(trace.requests[0].size, 100u);
  EXPECT_EQ(trace.requests[1].size, 1u);  // default size
}

TEST(TraceIO, RejectsMalformedLines) {
  std::stringstream missing("0 1\n");
  EXPECT_THROW((void)read_trace(missing), std::runtime_error);
  std::stringstream bad_time("x 1 2\n");
  EXPECT_THROW((void)read_trace(bad_time), std::runtime_error);
  std::stringstream bad_size("0 1 2 huge\n");
  EXPECT_THROW((void)read_trace(bad_size), std::runtime_error);
}

TEST(TraceIO, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file("/nonexistent/path/trace.txt"), std::runtime_error);
}

// --- stats --------------------------------------------------------------------

TEST(TraceStats, InfiniteCacheSizeCountsMultiReferenced) {
  Trace t;
  t.universe = 4;
  for (const ObjectNum o : {0u, 0u, 1u, 2u, 2u, 2u}) {
    t.requests.push_back(Request{0, 0, o, 1});
  }
  const auto s = analyze(t);
  EXPECT_EQ(s.infinite_cache_size, 2u);  // objects 0 and 2
  EXPECT_EQ(s.one_timers, 1u);           // object 1 (object 3 never referenced)
  EXPECT_EQ(s.max_frequency, 3u);
}

TEST(TraceStats, PerProxyFrequencyScales) {
  Trace t;
  t.universe = 1;
  for (int i = 0; i < 10; ++i) t.requests.push_back(Request{0, 0, 0, 1});
  const auto s = analyze(t);
  const auto f = per_proxy_frequency(s, 5);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_THROW((void)per_proxy_frequency(s, 0), std::invalid_argument);
}

TEST(TraceStats, RejectsOutOfUniverseObjects) {
  Trace t;
  t.universe = 1;
  t.requests.push_back(Request{0, 0, 5, 1});
  EXPECT_THROW((void)analyze(t), std::invalid_argument);
}

// --- UCB-like ------------------------------------------------------------------

TEST(UcbLike, CalibrationMatchesPublishedShape) {
  UcbLikeConfig cfg;
  cfg.scale = 0.02;  // ~185k requests: fast but statistically meaningful
  const auto trace = generate_ucb_like(cfg);
  const auto stats = analyze(trace);
  EXPECT_NEAR(static_cast<double>(trace.size()), 9'244'728.0 * 0.02, 1.0);
  // Requests per distinct object ~ 9.
  EXPECT_NEAR(static_cast<double>(stats.total_requests) /
                  static_cast<double>(stats.distinct_objects),
              9.0, 0.5);
  // Heavy one-time referencing: ~60% of distinct objects.
  EXPECT_NEAR(static_cast<double>(stats.one_timers) /
                  static_cast<double>(stats.distinct_objects),
              0.60, 0.05);
}

TEST(UcbLike, RejectsBadScale) {
  UcbLikeConfig cfg;
  cfg.scale = 0.0;
  EXPECT_THROW((void)ucb_like_prowgen_config(cfg), std::invalid_argument);
  cfg.scale = 1.5;
  EXPECT_THROW((void)ucb_like_prowgen_config(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace webcache::workload

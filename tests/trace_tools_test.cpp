// Tests for the trace tooling extensions: Squid access.log ingestion, exact
// LRU stack-distance analysis, and the text reader's error reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "cache/lru.hpp"
#include "workload/prowgen.hpp"
#include "workload/squid_log.hpp"
#include "workload/stack_distance.hpp"
#include "workload/trace.hpp"

namespace webcache::workload {
namespace {

// --- text reader error reporting ---------------------------------------------

std::string read_error_of(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(TraceReader, MalformedErrorsNameTheLineNumber) {
  // Line 1 parses, line 2 (a comment) is skipped, line 3 is broken: the
  // message must pin the failure to line 3 and quote the offending token.
  const auto error = read_error_of("0 1 2 10\n# comment\n5 oops 2 10\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("oops"), std::string::npos) << error;

  EXPECT_NE(read_error_of("bad 1 2 10\n").find("line 1"), std::string::npos);
  EXPECT_NE(read_error_of("0 1 2 10\n0 1 2 nope\n").find("line 2"), std::string::npos);
}

TEST(TraceReader, TrailingFieldsAreRejectedWithLineNumber) {
  const auto error = read_error_of("0 1 2 10\n0 1 2 10 surplus\n");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("surplus"), std::string::npos) << error;
}

TEST(TraceReader, MissingFieldsAreRejectedWithLineNumber) {
  const auto error = read_error_of("0 1\n");
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(TraceReader, IdsThatDoNotFitAreRejectedWithLineNumber) {
  auto error = read_error_of("0 1 2\n1 4294967296 2\n");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("4294967296"), std::string::npos) << error;
  error = read_error_of("0 1 2\n1 1 3\n2 1 4294967295\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("4294967295"), std::string::npos) << error;
}

TEST(TraceReader, SwitchingBetweenIdsAndUrlsIsRejectedWithLineNumber) {
  auto error = read_error_of("0 0 0\n# comment\n1 0 http://a.com/x\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("http://a.com/x"), std::string::npos) << error;
  error = read_error_of("0 0 http://a.com/x\n1 0 http://a.com/y\n2 0 7\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

// --- squid log ----------------------------------------------------------------

constexpr const char* kSampleLog =
    "1017772599.954 1 10.0.0.7 TCP_MISS/200 1374 GET http://a.com/x - DIRECT/- text/html\n"
    "1017772600.102 5 10.0.0.8 TCP_HIT/200 512 GET http://a.com/y - NONE/- text/css\n"
    "1017772600.500 2 10.0.0.7 TCP_MISS/304 0 GET http://a.com/x - DIRECT/- -\n"
    "1017772601.000 9 10.0.0.9 TCP_MISS/200 99 POST http://a.com/form - DIRECT/- -\n"
    "1017772601.500 9 10.0.0.9 TCP_MISS/404 10 GET http://a.com/missing - DIRECT/- -\n"
    "garbage line that does not parse\n"
    "1017772602.000 3 10.0.0.8 TCP_HIT/200 512 GET http://a.com/y - NONE/- text/css\n";

TEST(SquidLog, ParsesAndFilters) {
  std::istringstream in(kSampleLog);
  const auto result = read_squid_log(in);
  EXPECT_EQ(result.lines_total, 7u);
  EXPECT_EQ(result.lines_malformed, 1u);   // the garbage line
  EXPECT_EQ(result.lines_skipped, 2u);     // POST + 404
  ASSERT_EQ(result.trace.size(), 4u);
  EXPECT_EQ(result.trace.universe, 2u);  // /x and /y
  EXPECT_EQ(result.distinct_clients, 2u);        // 10.0.0.7 and .8

  // Same URL maps to the same dense id; timestamps are milliseconds.
  EXPECT_EQ(result.trace.requests[0].object, result.trace.requests[2].object);
  EXPECT_EQ(result.trace.requests[1].object, result.trace.requests[3].object);
  EXPECT_EQ(result.trace.requests[0].time, 1017772599954ULL);
  EXPECT_EQ(result.trace.requests[0].size, 1374u);
}

TEST(SquidLog, PermissiveOptionsKeepEverythingParseable) {
  std::istringstream in(kSampleLog);
  SquidReadOptions opts;
  opts.only_get = false;
  opts.only_successful = false;
  const auto result = read_squid_log(in, opts);
  EXPECT_EQ(result.trace.size(), 6u);
  EXPECT_EQ(result.lines_skipped, 0u);
  EXPECT_EQ(result.lines_malformed, 1u);
}

TEST(SquidLog, ZeroSizeBecomesUnit) {
  std::istringstream in(
      "1.5 1 c TCP_MISS/304 0 GET http://a.com/x - DIRECT/- -\n");
  const auto result = read_squid_log(in);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace.requests[0].size, 1u);
}

// A timestamp whose milliseconds overflow 64 bits is malformed, not a wrapped
// (or undefined) time.
TEST(SquidLog, TimestampsBeyond64BitMillisecondsAreMalformed) {
  std::istringstream in(
      "18446744073709552.000 1 10.0.0.7 TCP_MISS/200 10 GET http://a.com/x - DIRECT/- -\n"
      "1e300 1 10.0.0.7 TCP_MISS/200 10 GET http://a.com/y - DIRECT/- -\n"
      "18446744073709000.000 1 10.0.0.7 TCP_MISS/200 10 GET http://a.com/z - DIRECT/- -\n");
  const auto result = read_squid_log(in);
  EXPECT_EQ(result.lines_malformed, 2u);
  ASSERT_EQ(result.trace.size(), 1u);
}

TEST(SquidLog, MissingFileThrows) {
  EXPECT_THROW((void)read_squid_log_file("/no/such/file.log"), std::runtime_error);
}

// --- stack distances ------------------------------------------------------------

Trace trace_of(std::initializer_list<ObjectNum> objects) {
  Trace t;
  std::uint64_t time = 0;
  for (const auto o : objects) {
    t.requests.push_back(Request{time++, 0, o, 1});
    t.universe = std::max(t.universe, o + 1);
  }
  return t;
}

TEST(StackDistance, HandComputedSequence) {
  // A B C B A A:
  //   A: cold, B: cold, C: cold,
  //   B: distance 1 (C since last B),
  //   A: distance 2 (distinct {B, C} since last A),
  //   A: distance 0.
  const auto d = lru_stack_distances(trace_of({0, 1, 2, 1, 0, 0}));
  EXPECT_EQ(d[0], kColdMiss);
  EXPECT_EQ(d[1], kColdMiss);
  EXPECT_EQ(d[2], kColdMiss);
  EXPECT_EQ(d[3], 1u);
  EXPECT_EQ(d[4], 2u);
  EXPECT_EQ(d[5], 0u);
}

TEST(StackDistance, RepeatedReferencesCountDistinctOnly) {
  // A B B B A: distance of the final A is 1 (only B in between, however
  // many times it was referenced).
  const auto d = lru_stack_distances(trace_of({0, 1, 1, 1, 0}));
  EXPECT_EQ(d[4], 1u);
}

TEST(StackDistance, SummaryStatistics) {
  const auto d = lru_stack_distances(trace_of({0, 1, 2, 1, 0, 0}));
  const auto s = summarize_stack_distances(d);
  EXPECT_EQ(s.cold_misses, 3u);
  EXPECT_EQ(s.reuses, 3u);
  EXPECT_NEAR(s.mean, 1.0, 1e-12);  // distances 1, 2, 0
  EXPECT_EQ(s.median, 1u);
}

TEST(StackDistance, LruHitRatioMatchesDirectSimulation) {
  // The distance distribution must predict LRU hit ratios exactly.
  ProWGenConfig cfg;
  cfg.total_requests = 20'000;
  cfg.distinct_objects = 800;
  cfg.seed = 3;
  const auto trace = ProWGen(cfg).generate();
  const auto distances = lru_stack_distances(trace);

  for (const std::size_t capacity : {50u, 200u, 600u}) {
    // Direct simulation of an LRU cache.
    cache::LruCache lru(capacity);
    std::uint64_t hits = 0;
    for (const auto& r : trace.requests) {
      if (lru.contains(r.object)) {
        lru.access(r.object, 0);
        ++hits;
      } else {
        lru.insert(r.object, 0);
      }
    }
    const double direct = static_cast<double>(hits) / static_cast<double>(trace.size());
    EXPECT_NEAR(lru_hit_ratio(distances, capacity), direct, 1e-12) << capacity;
  }
}

TEST(StackDistance, LocalityKnobMovesTheDistribution) {
  ProWGenConfig weak;
  weak.total_requests = 30'000;
  weak.distinct_objects = 1'000;
  weak.temporal_amplifier = 1.0;
  weak.recency_bias = 0.5;
  ProWGenConfig strong = weak;
  strong.temporal_amplifier = 12.0;
  const auto d_weak = lru_stack_distances(ProWGen(weak).generate());
  const auto d_strong = lru_stack_distances(ProWGen(strong).generate());
  const auto s_weak = summarize_stack_distances(d_weak);
  const auto s_strong = summarize_stack_distances(d_strong);
  EXPECT_LT(s_strong.median, s_weak.median);
}

TEST(StackDistance, EmptyTrace) {
  const Trace empty;
  EXPECT_TRUE(lru_stack_distances(empty).empty());
  const auto s = summarize_stack_distances({});
  EXPECT_EQ(s.reuses, 0u);
  EXPECT_EQ(lru_hit_ratio({}, 10), 0.0);
}

}  // namespace
}  // namespace webcache::workload

// WEBCACHE_BENCH_SCALE parsing: a scale that cannot size a workload warns and
// falls back to 1.0 instead of reaching the request-count conversion.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_common.hpp"

namespace {

double scale_for(const char* value) {
  ::setenv("WEBCACHE_BENCH_SCALE", value, 1);
  const double scale = webcache::bench::bench_scale();
  ::unsetenv("WEBCACHE_BENCH_SCALE");
  return scale;
}

TEST(BenchScale, AcceptsPositiveFiniteScales) {
  EXPECT_EQ(scale_for("0.05"), 0.05);
  EXPECT_EQ(scale_for("2"), 2.0);
  EXPECT_EQ(scale_for("1e13"), 1e13);  // 1e19 requests still fit 64 bits
}

TEST(BenchScale, RejectsNonFiniteAndOverflowingScales) {
  for (const char* bad : {"inf", "1e300", "2e13", "nan", "-1", "0", "x"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(scale_for(bad), 1.0);
  }
}

}  // namespace

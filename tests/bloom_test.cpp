#include "bloom/counting_bloom.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/sha1.hpp"

namespace webcache::bloom {
namespace {

Uint128 key(std::uint64_t i) { return Sha1::hash128("key/" + std::to_string(i)); }

TEST(CountingBloom, InsertEraseRestoresAbsence) {
  CountingBloomFilter f(1000, 0.01);
  for (std::uint64_t i = 0; i < 500; ++i) f.insert(key(i));
  for (std::uint64_t i = 0; i < 500; ++i) EXPECT_TRUE(f.may_contain(key(i)));
  for (std::uint64_t i = 0; i < 500; ++i) f.erase(key(i));
  // After erasing everything, nothing should remain (no saturation at this
  // load, so deletions are exact).
  std::size_t still_present = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    if (f.may_contain(key(i))) ++still_present;
  }
  EXPECT_EQ(still_present, 0u);
  EXPECT_EQ(f.saturation_events(), 0u);
}

TEST(CountingBloom, NoFalseNegativesUnderChurn) {
  // Directory-like workload: rolling window of live keys.
  CountingBloomFilter f(2000, 0.01);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    f.insert(key(i));
    if (i >= 2000) f.erase(key(i - 2000));
    // The most recent 100 keys must always be present.
    if (i >= 100 && i % 97 == 0) {
      for (std::uint64_t j = i - 99; j <= i; ++j) {
        ASSERT_TRUE(f.may_contain(key(j))) << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(CountingBloom, SaturationCountsDuplicates) {
  CountingBloomFilter f(std::size_t{64}, 2u);
  // Insert the same key far beyond the 4-bit counter range.
  for (int i = 0; i < 40; ++i) f.insert(key(1));
  EXPECT_GT(f.saturation_events(), 0u);
  // Saturated counters never decrement: the key stays (a false positive,
  // never a false negative).
  for (int i = 0; i < 40; ++i) f.erase(key(1));
  EXPECT_TRUE(f.may_contain(key(1)));
}

TEST(CountingBloom, ClearResets) {
  CountingBloomFilter f(100, 0.01);
  for (int i = 0; i < 40; ++i) f.insert(key(1));
  ASSERT_GT(f.saturation_events(), 0u);
  f.clear();
  EXPECT_FALSE(f.may_contain(key(1)));
  EXPECT_EQ(f.saturation_events(), 0u);
}

TEST(CountingBloom, ClearEmptiesFilter) {
  CountingBloomFilter f(100, 0.01);
  for (std::uint64_t i = 0; i < 100; ++i) f.insert(key(i));
  f.clear();
  EXPECT_EQ(f.estimated_fpr(), 0.0);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(f.may_contain(key(i))) << i;
}

TEST(CountingBloom, NoFalseNegatives) {
  CountingBloomFilter f(1000, 0.01);
  for (std::uint64_t i = 0; i < 1000; ++i) f.insert(key(i));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(f.may_contain(key(i))) << i;
  }
}

TEST(CountingBloom, EstimatedFprGrowsWithLoad) {
  CountingBloomFilter f(1000, 0.01);
  const double empty = f.estimated_fpr();
  for (std::uint64_t i = 0; i < 1000; ++i) f.insert(key(i));
  EXPECT_GT(f.estimated_fpr(), empty);
}

TEST(CountingBloom, FalsePositiveRateNearTarget) {
  constexpr std::size_t kN = 10'000;
  constexpr double kTarget = 0.01;
  CountingBloomFilter f(kN, kTarget);
  for (std::uint64_t i = 0; i < kN; ++i) f.insert(key(i));

  std::size_t fp = 0;
  constexpr std::size_t kProbes = 20'000;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    if (f.may_contain(key(1'000'000 + i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, kTarget * 3.0);
  EXPECT_GT(rate, kTarget / 10.0);  // a filter with no FPs at all is suspicious
}

TEST(CountingBloom, EstimatedFprTracksTheory) {
  constexpr std::size_t kN = 5000;
  CountingBloomFilter f(kN, 0.02);
  for (std::uint64_t i = 0; i < kN; ++i) f.insert(key(i));
  // (1 - e^{-kn/m})^k after n inserts into m counters with k probes.
  const double k = f.hash_count();
  const double m = static_cast<double>(f.counter_count());
  const double theory = std::pow(1.0 - std::exp(-k * static_cast<double>(kN) / m), k);
  EXPECT_NEAR(f.estimated_fpr(), theory, 0.01);
}

TEST(CountingBloom, TighterTargetUsesMoreMemory) {
  const CountingBloomFilter loose(10'000, 0.1);
  const CountingBloomFilter tight(10'000, 0.001);
  EXPECT_GT(tight.memory_bytes(), loose.memory_bytes());
  EXPECT_GT(tight.hash_count(), loose.hash_count());
}

TEST(CountingBloom, RejectsBadTarget) {
  EXPECT_THROW(CountingBloomFilter(100, 0.0), std::invalid_argument);
  EXPECT_THROW(CountingBloomFilter(100, 1.0), std::invalid_argument);
  EXPECT_THROW(CountingBloomFilter(100, -0.5), std::invalid_argument);
  EXPECT_THROW(CountingBloomFilter(100, 1.5), std::invalid_argument);
  EXPECT_THROW(CountingBloomFilter(100, std::nan("")), std::invalid_argument);
}

TEST(CountingBloom, ExplicitGeometryRespected) {
  const CountingBloomFilter f(std::size_t{1024}, 3u);
  EXPECT_EQ(f.counter_count(), 1024u);
  EXPECT_EQ(f.hash_count(), 3u);
  EXPECT_EQ(f.memory_bytes(), 1024u);  // one byte per 4-bit counter
}

}  // namespace
}  // namespace webcache::bloom

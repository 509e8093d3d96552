// End-to-end tests across the whole stack: the experiment facade, directory
// consistency against P2P ground truth, paper-shape properties of full
// sweeps, and trace-file round trips through the simulator.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_stats.hpp"
#include "workload/ucb_like.hpp"

namespace webcache {
namespace {

workload::Trace paper_like_trace(std::uint64_t requests = 120'000, ObjectNum objects = 3'000) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.seed = 77;
  return workload::ProWGen(cfg).generate();
}

TEST(Integration, SweepProducesFullGrid) {
  const auto trace = paper_like_trace(60'000, 2'000);
  core::SweepConfig cfg;
  cfg.cache_percents = {10, 50, 100};
  const auto result = core::run_sweep(trace, cfg);
  ASSERT_EQ(result.metrics.size(), 3u);
  ASSERT_EQ(result.metrics[0].size(), sim::kAllSchemes.size());
  EXPECT_GT(result.infinite_cache_size, 0u);
  for (const auto& row : result.metrics) {
    for (const auto& m : row) {
      EXPECT_EQ(m.requests, trace.size());
    }
  }
  // NC's own gain is identically zero.
  EXPECT_EQ(result.gains[0][0], 0.0);
}

TEST(Integration, SweepIsDeterministicAcrossThreadCounts) {
  const auto trace = paper_like_trace(40'000, 1'500);
  core::SweepConfig serial;
  serial.cache_percents = {20, 60};
  serial.threads = 1;
  core::SweepConfig parallel = serial;
  parallel.threads = 8;
  const auto a = core::run_sweep(trace, serial);
  const auto b = core::run_sweep(trace, parallel);
  for (std::size_t i = 0; i < a.gains.size(); ++i) {
    for (std::size_t k = 0; k < a.gains[i].size(); ++k) {
      EXPECT_EQ(a.gains[i][k], b.gains[i][k]);
    }
  }
}

TEST(Integration, PaperOrderingAtSmallCaches) {
  // Figure 2's qualitative result at a small proxy cache: every EC scheme
  // beats its base scheme, coordination ranks FC > SC > NC, and Hier-GD
  // beats SC-EC, SC, NC-EC and FC.
  const auto trace = paper_like_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {10};
  const auto r = core::run_sweep(trace, cfg);
  const auto gain = [&](sim::Scheme s) {
    for (std::size_t k = 0; k < r.schemes.size(); ++k) {
      if (r.schemes[k] == s) return r.gains[0][k];
    }
    ADD_FAILURE() << "scheme missing";
    return 0.0;
  };
  using sim::Scheme;
  EXPECT_GT(gain(Scheme::kSC), 0.0);
  // At the smallest cache the FC-vs-SC margin is within noise on strongly
  // temporal workloads (SC's LFU-DA adapts; FC's values are frequency-only);
  // the strict ordering is asserted at 30% below.
  EXPECT_GT(gain(Scheme::kFC), gain(Scheme::kSC) - 2.0);
  EXPECT_GT(gain(Scheme::kNC_EC), 0.0);
  EXPECT_GT(gain(Scheme::kSC_EC), gain(Scheme::kSC));
  EXPECT_GT(gain(Scheme::kFC_EC), gain(Scheme::kFC));
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kSC_EC) - 2.0);  // within noise or better
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kSC));
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kNC_EC));
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kFC));
  // Hier-GD tracks the idealized FC-EC bound closely; on strongly temporal
  // workloads greedy-dual's recency sensitivity lets it edge slightly past
  // the frequency-only bound (see EXPERIMENTS.md), so allow a small margin.
  EXPECT_GE(gain(Scheme::kFC_EC), gain(Scheme::kHierGD) - 6.0);
}

TEST(Integration, PaperOrderingAtModerateCaches) {
  // At 30% of the infinite cache size every pairwise ordering of Figure 2
  // holds strictly.
  const auto trace = paper_like_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {30};
  const auto r = core::run_sweep(trace, cfg);
  const auto gain = [&](sim::Scheme s) {
    for (std::size_t k = 0; k < r.schemes.size(); ++k) {
      if (r.schemes[k] == s) return r.gains[0][k];
    }
    ADD_FAILURE() << "scheme missing";
    return 0.0;
  };
  using sim::Scheme;
  EXPECT_GT(gain(Scheme::kFC), gain(Scheme::kSC));
  EXPECT_GT(gain(Scheme::kSC), 0.0);
  EXPECT_GT(gain(Scheme::kNC_EC), 0.0);
  EXPECT_GT(gain(Scheme::kSC_EC), gain(Scheme::kSC));
  EXPECT_GT(gain(Scheme::kFC_EC), gain(Scheme::kFC));
  EXPECT_GT(gain(Scheme::kFC_EC), gain(Scheme::kSC_EC));
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kSC));
  EXPECT_GT(gain(Scheme::kHierGD), gain(Scheme::kNC_EC));
  EXPECT_GE(gain(Scheme::kFC_EC), gain(Scheme::kHierGD));
}

TEST(Integration, GainsShrinkAsCachesGrow) {
  const auto trace = paper_like_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {10, 100};
  cfg.schemes = {sim::Scheme::kSC_EC, sim::Scheme::kHierGD, sim::Scheme::kFC_EC};
  const auto r = core::run_sweep(trace, cfg);
  for (std::size_t k = 0; k < r.schemes.size(); ++k) {
    EXPECT_GT(r.gains[0][k], r.gains[1][k]) << sim::to_string(r.schemes[k]);
  }
}

TEST(Integration, ExactDirectoryMirrorsP2PContents) {
  const auto trace = paper_like_trace(30'000, 1'500);
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kHierGD;
  cfg.proxy_capacity = 150;
  cfg.clients_per_cluster = 30;
  cfg.client_cache_capacity = 3;
  sim::Simulator sim(cfg, trace);
  (void)sim.run();
  for (unsigned p = 0; p < cfg.num_proxies; ++p) {
    const auto* p2p = sim.p2p_of(p);
    const auto* dir = sim.directory_of(p);
    ASSERT_NE(p2p, nullptr);
    ASSERT_NE(dir, nullptr);
    // Every cached object is in the directory, and the directory holds
    // exactly the cached set (no stale entries, no misses).
    EXPECT_EQ(dir->entry_count(), p2p->size());
    for (ObjectNum o = 0; o < trace.universe; ++o) {
      ASSERT_EQ(dir->may_contain(o), p2p->contains(o)) << "proxy " << p << " object " << o;
    }
  }
}

TEST(Integration, UcbLikeWorkloadShowsSameOrderingWithLowerGains) {
  workload::UcbLikeConfig ucb;
  ucb.scale = 0.01;  // ~92k requests
  const auto ucb_trace = workload::generate_ucb_like(ucb);
  const auto synth_trace = paper_like_trace(92'000, 9'200);

  core::SweepConfig cfg;
  cfg.cache_percents = {30};
  cfg.schemes = {sim::Scheme::kSC, sim::Scheme::kFC_EC, sim::Scheme::kHierGD};
  const auto r_ucb = core::run_sweep(ucb_trace, cfg);
  const auto r_synth = core::run_sweep(synth_trace, cfg);

  // Same ordering...
  EXPECT_GT(r_ucb.gains[0][1], r_ucb.gains[0][0]);  // FC-EC > SC
  EXPECT_GT(r_ucb.gains[0][2], r_ucb.gains[0][0]);  // Hier-GD > SC
  // ...and the heavier one-timer mix yields lower absolute FC-EC gains than
  // the default synthetic workload (paper Fig. 2(b) vs 2(a)).
  EXPECT_LT(r_ucb.gains[0][1], r_synth.gains[0][1]);
}

TEST(Integration, TraceFileRoundTripThroughSimulator) {
  const auto trace = paper_like_trace(20'000, 1'000);
  std::stringstream buffer;
  workload::write_trace(buffer, trace);
  const auto loaded = workload::read_trace(buffer);

  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSC_EC;
  cfg.proxy_capacity = 100;
  const auto a = sim::run_simulation(cfg, trace);
  const auto b = sim::run_simulation(cfg, loaded);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.hits_local_proxy, b.hits_local_proxy);
}

TEST(Integration, PrintGainTableFormat) {
  const auto trace = paper_like_trace(20'000, 1'000);
  core::SweepConfig cfg;
  cfg.cache_percents = {50};
  cfg.schemes = {sim::Scheme::kSC, sim::Scheme::kHierGD};
  const auto r = core::run_sweep(trace, cfg);
  std::ostringstream out;
  core::print_gain_table(out, r, "test table");
  const auto text = out.str();
  EXPECT_NE(text.find("test table"), std::string::npos);
  EXPECT_NE(text.find("SC"), std::string::npos);
  EXPECT_NE(text.find("Hier-GD"), std::string::npos);
  EXPECT_NE(text.find("50"), std::string::npos);
}

TEST(Integration, ClusterInfiniteCacheSizeMatchesDefinition) {
  workload::Trace t;
  t.universe = 3;
  // Round-robin over 2 proxies: proxy 0 sees requests 0, 2, 4, ...
  // proxy-0 stream: objects 0, 0, 1 -> one multi-referenced object.
  for (const ObjectNum o : {0u, 2u, 0u, 2u, 1u, 2u}) {
    t.requests.push_back(Request{0, 0, o, 1});
  }
  EXPECT_EQ(core::cluster_infinite_cache_size(t, 2), 1u);
  EXPECT_EQ(core::cluster_infinite_cache_size(t, 1), 2u);  // objects 0 and 2
  EXPECT_THROW((void)core::cluster_infinite_cache_size(t, 0), std::invalid_argument);
}

// One sizing rule for every cache, the proxy's and the clients': the
// nearest object, and never zero.
TEST(Integration, CapacityFromPercentRoundsToTheNearestObject) {
  EXPECT_EQ(core::capacity_from_percent(25.0, 1'234), 309u);  // 308.5
  EXPECT_EQ(core::capacity_from_percent(10.0, 1'234), 123u);  // 123.4
  EXPECT_EQ(core::capacity_from_percent(0.0, 1'234), 1u);
}

TEST(Integration, RunSingleComputesGain) {
  const auto trace = paper_like_trace(20'000, 1'000);
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kHierGD;
  cfg.proxy_capacity = 80;
  const auto single = core::run_single(trace, cfg);
  EXPECT_GT(single.gain_percent, 0.0);
  EXPECT_LT(single.metrics.mean_latency(), single.baseline.mean_latency());

  cfg.scheme = sim::Scheme::kNC;
  const auto nc = core::run_single(trace, cfg);
  EXPECT_EQ(nc.gain_percent, 0.0);
}

TEST(Integration, EmptyInputsRejected) {
  const workload::Trace empty;
  core::SweepConfig cfg;
  EXPECT_THROW((void)core::run_sweep(empty, cfg), std::invalid_argument);
  const auto trace = paper_like_trace(10'000, 500);
  cfg.cache_percents.clear();
  EXPECT_THROW((void)core::run_sweep(trace, cfg), std::invalid_argument);
}

// A negative percentage must not wrap to an unbounded std::size_t capacity and
// silently run an infinite cache.
TEST(Integration, NegativeCachePercentRejected) {
  const auto trace = paper_like_trace(10'000, 500);
  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kSC};
  cfg.cache_percents = {20.0, -10.0};
  EXPECT_THROW((void)core::run_sweep(trace, cfg), std::invalid_argument);
}

TEST(Integration, NonFiniteClientCachePercentRejected) {
  const auto trace = paper_like_trace(10'000, 500);
  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kSC};
  cfg.cache_percents = {20.0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    cfg.client_cache_percent = bad;
    EXPECT_THROW((void)core::run_sweep(trace, cfg), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace webcache

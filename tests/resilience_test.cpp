// Tests for the extension features: per-client private browser caches (the
// "local" partition of the client cache, paper Section 2) and client-crash
// fault injection against Hier-GD's P2P tier (the fault-resilience the
// paper credits to the Pastry substrate).
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace webcache::sim {
namespace {

workload::Trace test_trace(std::uint64_t requests = 60'000, ObjectNum objects = 2'000) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.seed = 131;
  return workload::ProWGen(cfg).generate();
}

SimConfig base_config(Scheme scheme) {
  SimConfig c;
  c.scheme = scheme;
  c.proxy_capacity = 200;
  c.clients_per_cluster = 50;
  c.client_cache_capacity = 2;
  return c;
}

// --- browser caches ---------------------------------------------------------

TEST(BrowserCache, DisabledByDefault) {
  const auto trace = test_trace();
  const auto m = run_simulation(base_config(Scheme::kNC), trace);
  EXPECT_EQ(m.hits_browser, 0u);
}

TEST(BrowserCache, AbsorbsRepeatRequestsForEveryScheme) {
  const auto trace = test_trace();
  for (const auto scheme : kAllSchemes) {
    auto cfg = base_config(scheme);
    cfg.browser_cache_capacity = 10;
    const auto m = run_simulation(cfg, trace);
    EXPECT_GT(m.hits_browser, 0u) << to_string(scheme);
    EXPECT_EQ(m.requests, trace.size()) << to_string(scheme);
    EXPECT_EQ(m.total_hits() + m.server_fetches, trace.size()) << to_string(scheme);
  }
}

TEST(BrowserCache, ReducesMeanLatency) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kHierGD);
  const auto without = run_simulation(cfg, trace);
  cfg.browser_cache_capacity = 10;
  const auto with = run_simulation(cfg, trace);
  EXPECT_LT(with.mean_latency(), without.mean_latency());
}

TEST(BrowserCache, BiggerBrowserCachesAbsorbMore) {
  const auto trace = test_trace();
  auto small = base_config(Scheme::kSC);
  small.browser_cache_capacity = 2;
  auto large = base_config(Scheme::kSC);
  large.browser_cache_capacity = 50;
  const auto m_small = run_simulation(small, trace);
  const auto m_large = run_simulation(large, trace);
  EXPECT_GT(m_large.hits_browser, m_small.hits_browser);
}

TEST(BrowserCache, LatencyIdentityIncludesZeroCostBrowserHits) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kSC_EC);
  cfg.browser_cache_capacity = 10;
  const auto m = run_simulation(cfg, trace);
  const auto& L = cfg.latencies;
  const double reconstructed =
      static_cast<double>(m.hits_local_proxy) * L.request_latency(net::ServedFrom::kLocalProxy) +
      static_cast<double>(m.hits_local_p2p) * L.request_latency(net::ServedFrom::kLocalP2P) +
      static_cast<double>(m.hits_remote_proxy) *
          L.request_latency(net::ServedFrom::kRemoteProxy) +
      static_cast<double>(m.hits_remote_p2p) * L.request_latency(net::ServedFrom::kRemoteP2P) +
      static_cast<double>(m.server_fetches) *
          L.request_latency(net::ServedFrom::kOriginServer) +
      m.wasted_p2p_latency + m.p2p_hop_latency_total;
  EXPECT_NEAR(m.total_latency, reconstructed, 1e-6 * m.total_latency + 1e-9);
  EXPECT_DOUBLE_EQ(L.request_latency(net::ServedFrom::kBrowser), 0.0);
}

// --- client failures --------------------------------------------------------

std::vector<fault::ChurnEvent> spread_failures(std::uint64_t trace_len, unsigned proxies,
                                               ClientNum clients, unsigned count) {
  std::vector<fault::ChurnEvent> failures;
  for (unsigned i = 0; i < count; ++i) {
    failures.push_back(fault::ChurnEvent{
        trace_len / 4 + i * (trace_len / (2 * count)),
        i % proxies,
        static_cast<ClientNum>((i * 7) % clients),
    });
  }
  return failures;
}

TEST(FailureInjection, OnlyValidForHierGd) {
  const auto trace = test_trace(5'000, 500);
  auto cfg = base_config(Scheme::kSC);
  cfg.churn_events = {{100, 0, 1}};
  EXPECT_THROW(Simulator(cfg, trace), std::invalid_argument);
}

TEST(FailureInjection, RunsToCompletionAndStaysConsistent) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kHierGD);
  cfg.churn_events =
      spread_failures(trace.size(), cfg.num_proxies, cfg.clients_per_cluster, 10);
  const auto m = run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, trace.size());
  EXPECT_EQ(m.total_hits() + m.server_fetches, trace.size());
}

TEST(FailureInjection, StaleDirectoryEntriesSurfaceAsFalsePositives) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kHierGD);
  // Fail a third of each cluster halfway through: directory entries for the
  // lost objects go stale and are discovered (and repaired) on lookup.
  cfg.churn_events =
      spread_failures(trace.size(), cfg.num_proxies, cfg.clients_per_cluster, 16);
  const auto m = run_simulation(cfg, trace);
  EXPECT_GT(m.messages.directory_false_positives, 0u);
  EXPECT_GT(m.wasted_p2p_latency, 0.0);
}

TEST(FailureInjection, DegradesGracefully) {
  const auto trace = test_trace();
  auto healthy = base_config(Scheme::kHierGD);
  const auto m_healthy = run_simulation(healthy, trace);

  auto faulty = base_config(Scheme::kHierGD);
  faulty.churn_events =
      spread_failures(trace.size(), faulty.num_proxies, faulty.clients_per_cluster, 10);
  const auto m_faulty = run_simulation(faulty, trace);

  // Losing 20% of each cluster's client caches mid-run hurts, but the
  // system keeps a clear win over no client caches at all (SC).
  EXPECT_GE(m_faulty.mean_latency(), m_healthy.mean_latency());
  const auto sc = run_simulation(base_config(Scheme::kSC), trace);
  EXPECT_LT(m_faulty.mean_latency(), sc.mean_latency());
}

TEST(FailureInjection, UnknownProxyRejected) {
  const auto trace = test_trace(5'000, 500);
  auto cfg = base_config(Scheme::kHierGD);
  cfg.churn_events = {{10, 99, 0}};
  Simulator sim(cfg, trace);
  EXPECT_THROW((void)sim.run(), std::invalid_argument);
}

}  // namespace
}  // namespace webcache::sim

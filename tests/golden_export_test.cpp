// Golden exports for the greedy-dual schemes.
//
// Every other export test compares two runs of the current build with each
// other (1 vs N shards, streamed vs in-memory), so a change that moves the
// simulator's victim order in every engine at once would pass them all.
// These tests pin the FNV-1a 64 digest of each "webcache-metrics/1" body to a
// constant instead: any change to Hier-GD's or Squirrel's simulated outcome —
// a greedy-dual victim, an inflation value, a directory or Pastry count —
// changes the digest.
//
// The trace is built from integer Rng draws only (no ProWGen, whose std::pow
// calls may round differently across compilers and libms), so the constants
// hold on every toolchain the project builds with. A change that intends to
// alter simulated results re-records them from the failure messages.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "fault/churn_schedule.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace webcache;

constexpr ObjectNum kObjects = 2'000;
constexpr ClientNum kClients = 20;

/// 20k requests with a squared-uniform object skew: a hot head that keeps
/// hitting and a long tail that keeps every cache evicting.
workload::Trace golden_trace() {
  workload::Trace trace;
  trace.distinct_objects = kObjects;
  Rng rng(2003);
  for (std::uint64_t t = 0; t < 20'000; ++t) {
    const std::uint64_t u = rng.next_below(kObjects);
    Request r;
    r.time = t;
    r.object = static_cast<ObjectNum>(u * u / kObjects);
    r.client = static_cast<ClientNum>(rng.next_below(kClients));
    trace.requests.push_back(r);
  }
  return trace;
}

sim::SimConfig golden_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_proxies = 4;
  cfg.proxy_capacity = 120;
  cfg.clients_per_cluster = kClients;
  cfg.client_cache_capacity = 4;
  return cfg;
}

/// Runs `cfg` over `trace` and checks the FNV-1a 64 digest of its export
/// body, printing the digest in hex so a deliberate change can re-record it.
void expect_digest(sim::SimConfig cfg, const workload::Trace& trace, std::uint64_t expected) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  std::ostringstream body;
  cfg.registry->write_json_body(body);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : body.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(h, expected) << "export digest is 0x" << std::hex << h;
}

TEST(GoldenExports, HierGdSequentialEngine) {
  expect_digest(golden_config(sim::Scheme::kHierGD), golden_trace(), 0x840dd815910e31c5ULL);
}

TEST(GoldenExports, HierGdShardedEngineWithChurnLossAndBrowsers) {
  const auto trace = golden_trace();
  auto cfg = golden_config(sim::Scheme::kHierGD);
  cfg.sim_shards = 2;
  cfg.shard_epoch = 1'024;
  cfg.browser_cache_capacity = 2;
  cfg.p2p_loss_rate = 0.02;
  fault::ChurnSpec spec;
  spec.start = 4'000;
  spec.crashes = 3;
  spec.recover_after = 3'000;
  spec.joins = 2;
  spec.repair_every = 5'000;
  cfg.churn_events =
      fault::make_schedule(spec, trace.size(), cfg.num_proxies, cfg.clients_per_cluster);
  ASSERT_TRUE(sim::Simulator::sharding_supported(cfg));
  expect_digest(cfg, trace, 0xb0509167c46c8ad9ULL);
}

TEST(GoldenExports, Squirrel) {
  expect_digest(golden_config(sim::Scheme::kSquirrel), golden_trace(), 0x03e3e2c31ce3a56bULL);
}

}  // namespace

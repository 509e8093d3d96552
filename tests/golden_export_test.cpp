// Golden exports for every scheme on both engines.
//
// Every other export test compares two runs of the current build with each
// other (1 vs N shards, streamed vs in-memory), so a change that moves the
// simulator's victim order in every engine at once would pass them all.
// These tests pin the FNV-1a 64 digest of each "webcache-metrics/1" body to a
// constant instead: any change to a scheme's simulated outcome — a victim,
// an inflation value, a directory or Pastry count — changes the digest.
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
#include <vector>

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
  trace.universe = kObjects;
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
/// body, followed by its trace CSV when the tracer is on, printing the digest
/// in hex so a deliberate change can re-record it.
void expect_digest(sim::SimConfig cfg, const workload::Trace& trace, std::uint64_t expected) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  std::ostringstream body;
  cfg.registry->write_json_body(body);
  if (cfg.trace_capacity > 0) cfg.registry->write_trace_csv(body);
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

/// Crashes, rejoins, joins, repair passes and 2% P2P message loss.
sim::SimConfig with_churn_and_loss(sim::SimConfig cfg, std::uint64_t requests) {
  cfg.p2p_loss_rate = 0.02;
  fault::ChurnSpec spec;
  spec.start = 4'000;
  spec.crashes = 3;
  spec.recover_after = 3'000;
  spec.joins = 2;
  spec.repair_every = 5'000;
  cfg.churn_events =
      fault::make_schedule(spec, requests, cfg.num_proxies, cfg.clients_per_cluster);
  return cfg;
}

sim::SimConfig sharded(sim::SimConfig cfg) {
  cfg.sim_shards = 2;
  cfg.shard_epoch = 1'024;
  return cfg;
}

TEST(GoldenExports, HierGdShardedEngineWithChurnLossAndBrowsers) {
  const auto trace = golden_trace();
  auto cfg = with_churn_and_loss(sharded(golden_config(sim::Scheme::kHierGD)), trace.size());
  cfg.browser_cache_capacity = 2;
  ASSERT_TRUE(sim::Simulator::sharding_supported(cfg));
  expect_digest(cfg, trace, 0xb0509167c46c8ad9ULL);
}

TEST(GoldenExports, Squirrel) {
  expect_digest(golden_config(sim::Scheme::kSquirrel), golden_trace(), 0x03e3e2c31ce3a56bULL);
}

struct GoldenCase {
  const char* name;
  sim::SimConfig config;
  std::uint64_t digest;
};

void expect_digests(const std::vector<GoldenCase>& cases) {
  const auto trace = golden_trace();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    if (c.config.sim_shards > 0) {
      ASSERT_TRUE(sim::Simulator::sharding_supported(c.config));
    }
    expect_digest(c.config, trace, c.digest);
  }
}

TEST(GoldenExports, SequentialEngineEveryScheme) {
  using sim::Scheme;
  auto bloom = golden_config(Scheme::kHierGD);
  bloom.directory = sim::DirectoryKind::kBloom;
  // Browsers, churn, loss and per-hop charges all at once: the request-local
  // loss-waste path and the latency association it must keep.
  auto faulty = with_churn_and_loss(golden_config(Scheme::kHierGD), golden_trace().size());
  faulty.browser_cache_capacity = 2;
  faulty.p2p_hop_latency = 0.2;
  expect_digests({
      {"NC", golden_config(Scheme::kNC), 0xca3c7314e799e1bfULL},
      {"SC", golden_config(Scheme::kSC), 0xaa8404c36cc46a56ULL},
      {"FC", golden_config(Scheme::kFC), 0x41da9cb7c3110413ULL},
      {"NC-EC", golden_config(Scheme::kNC_EC), 0x3edff3c275201f16ULL},
      {"SC-EC", golden_config(Scheme::kSC_EC), 0xdee819ac5feae345ULL},
      {"FC-EC", golden_config(Scheme::kFC_EC), 0x9d646370c3a87d63ULL},
      {"Hier-GD bloom", bloom, 0x514c4d08deb852c4ULL},
      {"Hier-GD churn+loss+browsers+hops", faulty, 0xb3fad021d63e99e2ULL},
  });
}

TEST(GoldenExports, ShardedEngineEveryScheme) {
  using sim::Scheme;
  expect_digests({
      {"NC", sharded(golden_config(Scheme::kNC)), 0xca3c7314e799e1bfULL},
      {"SC", sharded(golden_config(Scheme::kSC)), 0xb77aad0396f18a24ULL},
      {"NC-EC", sharded(golden_config(Scheme::kNC_EC)), 0x31f43d8a133ce0beULL},
      {"SC-EC", sharded(golden_config(Scheme::kSC_EC)), 0x3b586c46d7e8d7a6ULL},
      {"Squirrel churn+loss",
       with_churn_and_loss(sharded(golden_config(Scheme::kSquirrel)), golden_trace().size()),
       0x1bc269469544e00fULL},
  });
}

sim::SimConfig with_policies(sim::Scheme scheme, cache::PolicyKind proxy,
                             cache::PolicyKind client) {
  auto cfg = golden_config(scheme);
  cfg.proxy_policy = proxy;
  cfg.client_policy = client;
  return cfg;
}

/// The modern policies in each tier they can take. Every other policy test
/// compares runs of one build with each other; these pin the outcome.
TEST(GoldenExports, PolicyOverrides) {
  using cache::PolicyKind;
  using sim::Scheme;
  expect_digests({
      {"NC w-tinylfu", with_policies(Scheme::kNC, PolicyKind::kWTinyLfu, PolicyKind::kDefault),
       0xa1c1fda4cef60abdULL},
      {"SC arc", with_policies(Scheme::kSC, PolicyKind::kArc, PolicyKind::kDefault),
       0x25b1070614dff7a3ULL},
      {"NC-EC tinylfu-lru/arc",
       with_policies(Scheme::kNC_EC, PolicyKind::kTinyLfuLru, PolicyKind::kArc),
       0x69ca7d882ca72b34ULL},
      {"Hier-GD w-tinylfu/arc",
       with_policies(Scheme::kHierGD, PolicyKind::kWTinyLfu, PolicyKind::kArc),
       0xfe6e785138dc9375ULL},
      {"Squirrel w-tinylfu clients",
       with_policies(Scheme::kSquirrel, PolicyKind::kDefault, PolicyKind::kWTinyLfu),
       0x5ce578dc3804c9edULL},
  });
}

/// More cooperating proxies than one 64-bit word has bits.
sim::SimConfig at_72_proxies(sim::Scheme scheme) {
  auto cfg = golden_config(scheme);
  cfg.num_proxies = 72;
  cfg.proxy_capacity = 20;
  return cfg;
}

TEST(GoldenExports, SequentialEngineAbove64Proxies) {
  using sim::Scheme;
  expect_digests({
      {"SC", at_72_proxies(Scheme::kSC), 0x40f834e94bac8604ULL},
      {"SC-EC", at_72_proxies(Scheme::kSC_EC), 0xf2bc411638cab882ULL},
      {"FC", at_72_proxies(Scheme::kFC), 0xe116d74d20b424b3ULL},
      {"FC-EC", at_72_proxies(Scheme::kFC_EC), 0x6643db7dd49da86bULL},
  });
}

/// Interval snapshots, a tracer ring that wraps, and browsers in front of
/// every scheme: pins the snapshot rows and the trace CSV.
sim::SimConfig observed(sim::Scheme scheme) {
  auto cfg = golden_config(scheme);
  cfg.snapshot_interval = 997;
  cfg.trace_capacity = 5'000;
  cfg.browser_cache_capacity = 2;
  return cfg;
}

TEST(GoldenExports, SnapshotsAndTracerEveryScheme) {
  using sim::Scheme;
  // Squirrel stores a fetched object at its home client after accounting the
  // request. Snapshots are taken once the request has completed, so each row
  // includes that store in its orgN.client_cache, orgN.net and orgN.pastry
  // columns.
  expect_digests({
      {"NC", observed(Scheme::kNC), 0xe686a6f1c390923fULL},
      {"SC", observed(Scheme::kSC), 0xaaf2e8f0e570487cULL},
      {"FC", observed(Scheme::kFC), 0xfea0810418231746ULL},
      {"NC-EC", observed(Scheme::kNC_EC), 0x470681ab1135c0cfULL},
      {"SC-EC", observed(Scheme::kSC_EC), 0xba09412cc949c066ULL},
      {"FC-EC", observed(Scheme::kFC_EC), 0x791ec43cd416e6c2ULL},
      {"Hier-GD", observed(Scheme::kHierGD), 0xd09f2db0ee94c125ULL},
      {"Squirrel", observed(Scheme::kSquirrel), 0xea37ef4539223b5fULL},
  });
}

}  // namespace

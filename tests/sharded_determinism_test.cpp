// Determinism contract of the intra-run sharded engine (SimConfig::
// sim_shards): for every scheme, every export must be byte-identical for ANY
// shard count >= 1 — with and without churn/loss, replaying in memory or
// streamed from a compiled .wct with a small replay chunk — and a sweep's
// write_metrics_json must not depend on shards x threads. Unsupported
// configurations (FC/FC-EC, snapshots, tracer, audit hooks, single proxy)
// must fall back to the sequential engine bit-exactly. Also the regression
// gate for the 256-cluster cooperation digests (ClusterBitset): cooperative
// sharded runs must work above 64 proxies and stay shard-count independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cluster_bitset.hpp"
#include "core/experiment.hpp"
#include "fault/churn_schedule.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"
#include "workload/wctrace.hpp"

namespace {

using namespace webcache;

workload::Trace shard_trace() {
  workload::ProWGenConfig wl;
  wl.total_requests = 30'000;
  wl.distinct_objects = 3'000;
  wl.seed = 2003;
  return workload::ProWGen(wl).generate();
}

sim::SimConfig shard_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_proxies = 8;
  cfg.proxy_capacity = 150;
  cfg.clients_per_cluster = 20;
  cfg.client_cache_capacity = 4;
  cfg.shard_epoch = 1024;  // several epochs over 30k requests
  return cfg;
}

/// Runs `cfg` over `trace` and returns the full registry JSON export.
std::string export_of(sim::SimConfig cfg, const workload::Trace& trace) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  std::ostringstream out;
  cfg.registry->write_json(out, "sharded_determinism");
  return out.str();
}

std::string export_of(sim::SimConfig cfg, const workload::TraceSource& source) {
  cfg.registry = std::make_shared<obs::Registry>();
  sim::Simulator simulator(cfg, source);
  (void)simulator.run();
  std::ostringstream out;
  cfg.registry->write_json(out, "sharded_determinism");
  return out.str();
}

std::vector<sim::Scheme> all_schemes_plus_squirrel() {
  std::vector<sim::Scheme> schemes(sim::kAllSchemes.begin(), sim::kAllSchemes.end());
  schemes.push_back(sim::Scheme::kSquirrel);
  return schemes;
}

TEST(ShardedDeterminism, ExportsAreByteIdenticalForAnyShardCount) {
  const auto trace = shard_trace();
  for (const auto scheme : all_schemes_plus_squirrel()) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    for (const unsigned shards : {2U, 8U, 13U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, ChurnAndLossRunsAreShardCountIndependent) {
  const auto trace = shard_trace();
  for (const auto scheme : {sim::Scheme::kHierGD, sim::Scheme::kSquirrel}) {
    auto cfg = shard_config(scheme);
    fault::ChurnSpec spec;
    spec.start = 5'000;
    spec.crashes = 4;
    spec.recover_after = 4'000;
    spec.joins = 2;
    spec.repair_every = 7'000;
    cfg.churn_events = fault::make_schedule(spec, trace.size(), cfg.num_proxies,
                                            cfg.clients_per_cluster);
    cfg.p2p_loss_rate = 0.02;
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    for (const unsigned shards : {2U, 8U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, StreamedWctReplayMatchesInMemoryAtEveryShardCount) {
  const auto trace = shard_trace();
  const std::string path = ::testing::TempDir() + "sharded_determinism.wct";
  workload::write_wctrace_file(path, trace);
  const workload::MmapTraceSource source(path);

  for (const auto scheme : {sim::Scheme::kSC, sim::Scheme::kHierGD}) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 1;
    const std::string reference = export_of(cfg, trace);
    // A replay chunk far smaller than the epoch forces many windows per
    // epoch; chunking must never leak into results.
    cfg.replay_chunk = 512;
    for (const unsigned shards : {1U, 8U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(reference, export_of(cfg, source))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
  std::filesystem::remove(path);
}

TEST(ShardedDeterminism, UnsupportedConfigsFallBackToTheSequentialEngine) {
  const auto trace = shard_trace();

  // FC's clairvoyant coordinator is inherently global.
  auto fc = shard_config(sim::Scheme::kFC);
  EXPECT_FALSE(sim::Simulator::sharding_supported(fc));
  const std::string fc_seq = export_of(fc, trace);
  fc.sim_shards = 8;
  EXPECT_EQ(fc_seq, export_of(fc, trace));

  // Interval snapshots tick per request in trace order.
  auto snap = shard_config(sim::Scheme::kSC);
  snap.snapshot_interval = 1'000;
  EXPECT_FALSE(sim::Simulator::sharding_supported(snap));

  // A single proxy has no clusters to partition.
  auto solo = shard_config(sim::Scheme::kHierGD);
  solo.num_proxies = 1;
  EXPECT_FALSE(sim::Simulator::sharding_supported(solo));

  // The supported shapes report so.
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kNC)));
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kHierGD)));
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kSquirrel)));
}

TEST(ShardedDeterminism, ShardedRunStillServesEveryRequest) {
  const auto trace = shard_trace();
  for (const auto scheme : all_schemes_plus_squirrel()) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 8;
    cfg.registry = std::make_shared<obs::Registry>();
    const auto metrics = sim::run_simulation(cfg, trace);
    EXPECT_EQ(metrics.requests, trace.size()) << sim::to_string(scheme);
    EXPECT_EQ(metrics.total_hits() + metrics.server_fetches, metrics.requests)
        << sim::to_string(scheme);
    EXPECT_EQ(cfg.registry->counter_value("sim.requests"), trace.size())
        << sim::to_string(scheme);
  }
}

TEST(ShardedDeterminism, SweepMetricsExportIsShardAndThreadCountIndependent) {
  const auto trace = shard_trace();
  core::SweepConfig sweep;
  sweep.schemes = {sim::Scheme::kSC, sim::Scheme::kHierGD};
  sweep.cache_percents = {1.0, 5.0};
  sweep.base = shard_config(sim::Scheme::kNC);
  sweep.collect_observability = true;

  std::string reference;
  for (const unsigned shards : {1U, 8U}) {
    for (const unsigned threads : {1U, 8U}) {
      sweep.base.sim_shards = shards;
      sweep.threads = threads;
      const auto result = core::run_sweep(trace, sweep);
      std::ostringstream out;
      core::write_metrics_json(out, result, "sharded_sweep");
      if (reference.empty()) {
        reference = out.str();
      } else {
        EXPECT_EQ(reference, out.str()) << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// --- ClusterBitset: the 256-cluster cooperation digests ----------------------

TEST(ClusterBitset, RingScanMatchesSingleWordSemanticsBelow64) {
  // Ring order from local+1 upward with wraparound, never returning local —
  // the exact contract of the old 64-bit scan.
  ClusterBitset mask;
  mask.set(3);
  mask.set(10);
  EXPECT_EQ(first_holder_in_ring(mask, 5), 10);
  EXPECT_EQ(first_holder_in_ring(mask, 10), 3);  // wraps past the top
  EXPECT_EQ(first_holder_in_ring(mask, 3), 10);
  mask.reset(10);
  EXPECT_EQ(first_holder_in_ring(mask, 3), -1);  // only the local bit left
  EXPECT_EQ(first_holder_in_ring(ClusterBitset{}, 0), -1);
}

TEST(ClusterBitset, RingScanCrossesWordBoundaries) {
  ClusterBitset mask;
  mask.set(2);    // word 0
  mask.set(70);   // word 1
  mask.set(200);  // word 3
  EXPECT_EQ(first_holder_in_ring(mask, 5), 70);    // higher word first
  EXPECT_EQ(first_holder_in_ring(mask, 70), 200);  // next word up
  EXPECT_EQ(first_holder_in_ring(mask, 200), 2);   // wraps to word 0
  EXPECT_EQ(first_holder_in_ring(mask, 255), 2);
  EXPECT_EQ(first_holder_in_ring(mask, 0), 2);     // later bit in own word
}

TEST(ManyProxies, ShardingIsSupportedUpTo256Clusters) {
  auto cfg = shard_config(sim::Scheme::kSC);
  cfg.num_proxies = 72;  // above the old 64-bit digest limit
  EXPECT_TRUE(sim::Simulator::sharding_supported(cfg));
  cfg.num_proxies = 256;
  EXPECT_TRUE(sim::Simulator::sharding_supported(cfg));
  cfg.num_proxies = 257;  // beyond the fixed ClusterBitset width
  EXPECT_FALSE(sim::Simulator::sharding_supported(cfg));

  auto hier = shard_config(sim::Scheme::kHierGD);
  hier.num_proxies = 72;
  EXPECT_TRUE(sim::Simulator::sharding_supported(hier));
}

TEST(ManyProxies, CooperativeExportsAreShardCountIndependentAt72Proxies) {
  const auto trace = shard_trace();
  auto cfg = shard_config(sim::Scheme::kSC);
  cfg.num_proxies = 72;
  cfg.proxy_capacity = 40;  // smaller per-proxy share over the same universe
  cfg.sim_shards = 1;
  const std::string one = export_of(cfg, trace);
  for (const unsigned shards : {2U, 8U}) {
    cfg.sim_shards = shards;
    EXPECT_EQ(one, export_of(cfg, trace)) << "shards=" << shards;
  }
  // The sequential engine handles > 64 cooperating proxies via its fallback
  // probe loops; it must still serve every request.
  cfg.sim_shards = 0;
  cfg.registry = std::make_shared<obs::Registry>();
  const auto metrics = sim::run_simulation(cfg, trace);
  EXPECT_EQ(metrics.requests, trace.size());
  EXPECT_EQ(metrics.total_hits() + metrics.server_fetches, metrics.requests);
}

}  // namespace

// Determinism contract of the intra-run sharded engine (SimConfig::
// sim_shards): for every scheme, every export must be byte-identical for ANY
// shard count >= 1 — with and without churn/loss, replaying in memory or
// streamed from a compiled .wct — and a sweep's write_metrics_json must not
// depend on shards x threads. Unsupported configurations (FC/FC-EC,
// snapshots, tracer, audit hooks, single proxy) must fall back to the
// sequential engine bit-exactly. At shard_epoch = 1 the sharded engine must
// match the sequential one outright. Also the regression
// gate for the cooperation digests (ClusterSets): cooperative sharded runs
// must work above 64 and 256 proxies and stay shard-count independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

/// Crashes, rejoins, joins and repair passes across the trace.
std::vector<fault::ChurnEvent> churn_schedule(const sim::SimConfig& cfg, std::uint64_t requests) {
  fault::ChurnSpec spec;
  spec.start = 5'000;
  spec.crashes = 4;
  spec.recover_after = 4'000;
  spec.joins = 2;
  spec.repair_every = 7'000;
  return fault::make_schedule(spec, requests, cfg.num_proxies, cfg.clients_per_cluster);
}

/// Runs `cfg` over `source` and returns the full registry JSON export.
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
    cfg.churn_events = churn_schedule(cfg, trace.size());
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

TEST(ShardedDeterminism, ExportsDoNotDependOnTheUniverse) {
  // Cluster state sized by what the caches hold: the same requests over a
  // universe padded 64x by objects no request names must export the same
  // bytes, on the sequential engine and on 2 shards.
  const auto trace = shard_trace();
  workload::Trace padded = trace;
  padded.universe = trace.universe * 64;
  auto cfg = shard_config(sim::Scheme::kHierGD);
  cfg.directory = sim::DirectoryKind::kExact;
  cfg.browser_cache_capacity = 20;
  cfg.churn_events = churn_schedule(cfg, trace.size());
  cfg.p2p_loss_rate = 0.02;
  for (const unsigned shards : {0U, 2U}) {
    cfg.sim_shards = shards;
    EXPECT_EQ(export_of(cfg, trace), export_of(cfg, padded)) << "shards=" << shards;
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

  // Invariant audits read global state at exact positions, even at the end.
  auto audited = shard_config(sim::Scheme::kHierGD);
  audited.audit_interval = 0;
  EXPECT_FALSE(sim::Simulator::sharding_supported(audited));

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

/// Runs `cfg` over `trace` into a fresh registry and returns it.
std::shared_ptr<obs::Registry> registry_of(sim::SimConfig cfg, const workload::Trace& trace) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  return cfg.registry;
}

std::vector<std::string> sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

/// Same instrument names, counters, stat counts and histogram buckets;
/// gauges equal up to summation order. `skip_dir_probes` excludes the
/// clusterN.dir.lookups/dir.positives counters.
void expect_same_outcomes(const obs::Registry& a, const obs::Registry& b, bool skip_dir_probes) {
  ASSERT_EQ(sorted(a.counter_names()), sorted(b.counter_names()));
  for (const auto& name : a.counter_names()) {
    if (skip_dir_probes && (name.ends_with(".dir.lookups") || name.ends_with(".dir.positives"))) {
      continue;
    }
    EXPECT_EQ(a.counter_value(name), b.counter_value(name)) << name;
  }
  ASSERT_EQ(sorted(a.gauge_names()), sorted(b.gauge_names()));
  for (const auto& name : a.gauge_names()) {
    const double x = a.gauge_value(name);
    const double y = b.gauge_value(name);
    EXPECT_LE(std::abs(x - y), 1e-9 * std::max(std::abs(x), std::abs(y))) << name;
  }
  ASSERT_EQ(sorted(a.stat_names()), sorted(b.stat_names()));
  for (const auto& name : a.stat_names()) {
    EXPECT_EQ(a.find_stat(name)->count(), b.find_stat(name)->count()) << name;
  }
  ASSERT_EQ(sorted(a.histogram_names()), sorted(b.histogram_names()));
  for (const auto& name : a.histogram_names()) {
    const Histogram& x = *a.find_histogram(name);
    const Histogram& y = *b.find_histogram(name);
    ASSERT_EQ(x.buckets(), y.buckets()) << name;
    for (std::size_t i = 0; i < x.buckets(); ++i) {
      EXPECT_EQ(x.bucket_count(i), y.bucket_count(i)) << name << " bucket " << i;
    }
  }
}

// At shard_epoch = 1 every digest is current when a request reads it, so the
// sharded engine runs the sequential engine's algorithm request by request.
// What departs at other settings is, by design:
//   * epoch staleness: at shard_epoch > 1 a digest lags the live caches by up
//     to one epoch;
//   * per-cluster loss substreams: p2p_loss_rate > 0 draws from one stream
//     per cluster instead of one per run (so these runs have no loss);
//   * the Hier-GD push scan: the sequential engine asks each remote lookup
//     directory in ring order (counting clusterN.dir.lookups/positives and
//     seeing Bloom false positives), the sharded engine reads the exact
//     directory digest. Those two counters are the only ones excluded.
TEST(ShardedDeterminism, EpochOneMatchesSequentialEngine) {
  const auto trace = shard_trace();
  int configurations = 0;
  for (const auto scheme : {sim::Scheme::kNC, sim::Scheme::kSC, sim::Scheme::kNC_EC,
                            sim::Scheme::kSC_EC, sim::Scheme::kHierGD, sim::Scheme::kSquirrel}) {
    const bool addressable = scheme == sim::Scheme::kHierGD || scheme == sim::Scheme::kSquirrel;
    for (const unsigned proxies : {4U, 72U}) {
      for (const int variant : {0, 1, 2}) {  // plain, browsers, churn
        if (variant == 2 && !addressable) continue;
        auto cfg = shard_config(scheme);
        cfg.num_proxies = proxies;
        if (proxies > 64) cfg.proxy_capacity = 40;
        if (variant == 1) cfg.browser_cache_capacity = 2;
        if (variant == 2) cfg.churn_events = churn_schedule(cfg, trace.size());
        SCOPED_TRACE(std::string(sim::to_string(scheme)) + " proxies=" +
                     std::to_string(proxies) + " variant=" + std::to_string(variant));
        const auto sequential = registry_of(cfg, trace);
        cfg.sim_shards = 1;
        cfg.shard_epoch = 1;
        ASSERT_TRUE(sim::Simulator::sharding_supported(cfg));
        expect_same_outcomes(*sequential, *registry_of(cfg, trace),
                             scheme == sim::Scheme::kHierGD);
        ++configurations;
      }
    }
  }
  EXPECT_EQ(configurations, 28);
}

// --- ClusterSets: the cooperation index and digests ---------------------------

/// The ring scan by brute force: local+1, local+2, ... wrapping, never local.
int ring_reference(const sim::ClusterSets& sets, ObjectNum object, unsigned clusters,
                   unsigned local) {
  for (unsigned i = 1; i < clusters; ++i) {
    const unsigned cluster = (local + i) % clusters;
    if (sets.test(object, cluster)) return static_cast<int>(cluster);
  }
  return -1;
}

TEST(ClusterSets, RingScanMatchesSingleWordSemanticsBelow64) {
  // Ring order from local+1 upward with wraparound, never returning local —
  // the exact contract of the old 64-bit scan.
  sim::ClusterSets sets(16, 4);
  sets.set(2, 3);
  sets.set(2, 10);
  EXPECT_EQ(sets.first_in_ring(2, 5), 10);
  EXPECT_EQ(sets.first_in_ring(2, 10), 3);  // wraps past the top
  EXPECT_EQ(sets.first_in_ring(2, 3), 10);
  sets.reset(2, 10);
  EXPECT_FALSE(sets.test(2, 10));
  EXPECT_TRUE(sets.test(2, 3));
  EXPECT_EQ(sets.first_in_ring(2, 3), -1);  // only the local bit left
  EXPECT_EQ(sets.first_in_ring(0, 0), -1);  // other objects are untouched
  EXPECT_EQ(sets.first_in_ring(9, 0), -1);  // beyond the universe: empty
  EXPECT_EQ(sim::ClusterSets{}.first_in_ring(0, 0), -1);

  // One holder at every position, seen from every local cluster: 8 clusters
  // fill one byte exactly, 9 and 17 spill one cluster into a further byte.
  for (const unsigned clusters : {8U, 9U, 17U}) {
    for (unsigned holder = 0; holder < clusters; ++holder) {
      sim::ClusterSets one(clusters, 3);
      one.set(1, holder);
      for (unsigned local = 0; local < clusters; ++local) {
        EXPECT_EQ(one.first_in_ring(1, local),
                  local == holder ? -1 : static_cast<int>(holder))
            << clusters << " clusters, holder " << holder << ", local " << local;
        EXPECT_EQ(one.first_in_ring(0, local), -1);
        EXPECT_EQ(one.first_in_ring(2, local), -1);
      }
    }
  }
}

TEST(ClusterSets, RingScanCrossesWordBoundaries) {
  sim::ClusterSets sets(300, 2);
  sets.set(1, 2);    // word 0
  sets.set(1, 70);   // word 1
  sets.set(1, 200);  // word 3
  EXPECT_EQ(sets.first_in_ring(1, 5), 70);    // higher word first
  EXPECT_EQ(sets.first_in_ring(1, 70), 200);  // next word up
  EXPECT_EQ(sets.first_in_ring(1, 200), 2);   // wraps to word 0
  EXPECT_EQ(sets.first_in_ring(1, 255), 2);
  EXPECT_EQ(sets.first_in_ring(1, 0), 2);     // later bit in own word
  EXPECT_EQ(sets.first_in_ring(0, 5), -1);    // rows do not bleed into each other
  // Above 256 clusters: a fifth word, scanned before the wrap.
  sets.set(1, 290);
  EXPECT_EQ(sets.first_in_ring(1, 200), 290);
  EXPECT_EQ(sets.first_in_ring(1, 290), 2);
  EXPECT_EQ(sets.first_in_ring(1, 299), 2);
  sets.reset(1, 2);
  sets.reset(1, 70);
  sets.reset(1, 200);
  EXPECT_EQ(sets.first_in_ring(1, 0), 290);
  EXPECT_EQ(sets.first_in_ring(1, 290), -1);

  // Every pair of holders from every local cluster at 8, 9 and 17 clusters,
  // against the brute-force ring; resetting one holder leaves the other.
  for (const unsigned clusters : {8U, 9U, 17U}) {
    for (unsigned a = 0; a < clusters; ++a) {
      for (unsigned b = a + 1; b < clusters; ++b) {
        sim::ClusterSets pair(clusters, 2);
        pair.set(1, a);
        pair.set(1, b);
        for (unsigned local = 0; local < clusters; ++local) {
          EXPECT_EQ(pair.first_in_ring(1, local), ring_reference(pair, 1, clusters, local))
              << clusters << " clusters, holders " << a << "," << b << ", local " << local;
        }
        pair.reset(1, a);
        EXPECT_FALSE(pair.test(1, a));
        EXPECT_EQ(pair.first_in_ring(1, a), static_cast<int>(b));
        EXPECT_EQ(pair.first_in_ring(0, a), -1);
      }
    }
  }
}

TEST(ManyProxies, ShardingIsSupportedAtAnyProxyCount) {
  auto cfg = shard_config(sim::Scheme::kSC);
  for (const unsigned proxies : {72U, 256U, 257U, 300U}) {
    cfg.num_proxies = proxies;
    EXPECT_TRUE(sim::Simulator::sharding_supported(cfg)) << proxies;
  }
  auto hier = shard_config(sim::Scheme::kHierGD);
  hier.num_proxies = 72;
  EXPECT_TRUE(sim::Simulator::sharding_supported(hier));

  // Above 256 cooperating proxies the sharded engine runs (no fallback) and
  // its exports stay shard-count independent.
  const auto trace = shard_trace();
  cfg.num_proxies = 300;
  cfg.proxy_capacity = 20;
  cfg.sim_shards = 1;
  const std::string one = export_of(cfg, trace);
  for (const unsigned shards : {2U, 13U}) {
    cfg.sim_shards = shards;
    EXPECT_EQ(one, export_of(cfg, trace)) << "shards=" << shards;
  }
  cfg.sim_shards = 0;
  EXPECT_NE(one, export_of(cfg, trace)) << "300 proxies fell back to the sequential engine";
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
  // The sequential engine's index spans two words here; it must still serve
  // every request.
  cfg.sim_shards = 0;
  cfg.registry = std::make_shared<obs::Registry>();
  const auto metrics = sim::run_simulation(cfg, trace);
  EXPECT_EQ(metrics.requests, trace.size());
  EXPECT_EQ(metrics.total_hits() + metrics.server_fetches, metrics.requests);
}

}  // namespace

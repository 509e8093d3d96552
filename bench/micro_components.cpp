// Micro benchmarks (google-benchmark) for the building blocks: SHA-1,
// Zipf sampling, cache policy operations, Bloom filters, Pastry routing,
// workload generation and end-to-end simulated request throughput.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bloom/counting_bloom.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "common/zipf.hpp"
#include "directory/directory.hpp"
#include "pastry/overlay.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace {

using namespace webcache;

void BM_Sha1Hash128(benchmark::State& state) {
  std::string url = "http://origin.example.com/object/1234567";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash128(url));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(url.size()));
}
BENCHMARK(BM_Sha1Hash128);

void BM_ZipfAliasSample(benchmark::State& state) {
  const ZipfSampler z(static_cast<std::size_t>(state.range(0)), 0.7);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}
BENCHMARK(BM_ZipfAliasSample)->Arg(10'000)->Arg(1'000'000);

void BM_ZipfRejectionSample(benchmark::State& state) {
  const ZipfRejection z(static_cast<std::uint64_t>(state.range(0)), 0.7);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}
BENCHMARK(BM_ZipfRejectionSample)->Arg(10'000)->Arg(1'000'000'000);

template <typename CacheT>
void cache_mixed_ops(benchmark::State& state) {
  CacheT cache(1000);
  Rng rng(7);
  for (auto _ : state) {
    const auto o = static_cast<ObjectNum>(rng.next_below(5000));
    if (cache.contains(o)) {
      cache.access(o, 20.0);
    } else {
      cache.insert(o, 20.0);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LruCacheOps(benchmark::State& state) { cache_mixed_ops<cache::LruCache>(state); }
BENCHMARK(BM_LruCacheOps);
void BM_LfuCacheOps(benchmark::State& state) { cache_mixed_ops<cache::LfuCache>(state); }
BENCHMARK(BM_LfuCacheOps);
void BM_GreedyDualCacheOps(benchmark::State& state) {
  cache_mixed_ops<cache::GreedyDualCache>(state);
}
BENCHMARK(BM_GreedyDualCacheOps);

// Eviction-pressure variant of the mixed-op loop: a cache much smaller than
// its working set, so most inserts evict — the proxy admit/destage regime
// that dominates the Hier-GD hot path.
void BM_GreedyDualEvictionPressure(benchmark::State& state) {
  cache::GreedyDualCache cache(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    const auto o = static_cast<ObjectNum>(rng.next_below(10'000));
    if (cache.contains(o)) {
      cache.access(o, 20.0);
    } else {
      benchmark::DoNotOptimize(cache.insert(o, 20.0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GreedyDualEvictionPressure)->Arg(2'000)->Arg(5);

// Directory maintenance mix as the Hier-GD proxy drives it: a rolling window
// of adds (store receipts), removes (eviction notices) and lookups.
template <typename MakeDir>
void directory_ops(benchmark::State& state, MakeDir make) {
  const auto dir = make();
  constexpr ObjectNum kUniverse = 100'000;
  constexpr ObjectNum kWindow = 10'000;
  ObjectNum next = 0;
  for (ObjectNum o = 0; o < kWindow; ++o) dir->add(next++);
  Rng rng(11);
  for (auto _ : state) {
    dir->add(next);
    dir->remove(next - kWindow);
    next = (next + 1) % kUniverse == 0 ? kWindow : next + 1;
    benchmark::DoNotOptimize(dir->may_contain(static_cast<ObjectNum>(rng.next_below(kUniverse))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ExactDirectoryOps(benchmark::State& state) {
  directory_ops(state, [] { return std::make_unique<directory::ExactDirectory>(); });
}
BENCHMARK(BM_ExactDirectoryOps);

void BM_BloomDirectoryOps(benchmark::State& state) {
  const auto table = directory::build_object_id_table(100'000);
  directory_ops(state, [&] {
    return std::make_unique<directory::BloomDirectory>(table, 10'000, 0.02);
  });
}
BENCHMARK(BM_BloomDirectoryOps);

// Ring-placement table construction (SHA-1 of every object URL) — the cost
// run_sweep now pays once per trace instead of once per Hier-GD/Squirrel job.
void BM_RingPlacementTable(benchmark::State& state) {
  const auto n = static_cast<ObjectNum>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(directory::build_object_id_table(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RingPlacementTable)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_CountingBloomInsertQuery(benchmark::State& state) {
  bloom::CountingBloomFilter f(100'000, 0.01);
  Rng rng(3);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const Uint128 key{rng(), rng()};
    f.insert(key);
    benchmark::DoNotOptimize(f.may_contain(key));
    if (++i % 4 == 0) f.erase(key);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingBloomInsertQuery);

void BM_PastryRoute(benchmark::State& state) {
  pastry::Overlay overlay{{}};
  const auto n = static_cast<unsigned>(state.range(0));
  for (unsigned i = 0; i < n; ++i) {
    overlay.add_node(pastry::node_id_for("micro/node" + std::to_string(i)));
  }
  const auto ids = overlay.nodes();
  Rng rng(n);
  std::uint64_t k = 0;
  for (auto _ : state) {
    const auto key = Uint128{rng(), k++};
    benchmark::DoNotOptimize(overlay.route(ids[rng.next_below(ids.size())], key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PastryRoute)->Arg(100)->Arg(1000);

void BM_ProWGenGenerate(benchmark::State& state) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = 100'000;
  cfg.distinct_objects = 5'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::ProWGen(cfg).generate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_ProWGenGenerate)->Unit(benchmark::kMillisecond);

void simulate_scheme(benchmark::State& state, sim::Scheme scheme) {
  workload::ProWGenConfig wl;
  wl.total_requests = 100'000;
  wl.distinct_objects = 5'000;
  const auto trace = workload::ProWGen(wl).generate();
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.proxy_capacity = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(cfg, trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}

void BM_SimulateNC(benchmark::State& state) { simulate_scheme(state, sim::Scheme::kNC); }
BENCHMARK(BM_SimulateNC)->Unit(benchmark::kMillisecond);
void BM_SimulateSC(benchmark::State& state) { simulate_scheme(state, sim::Scheme::kSC); }
BENCHMARK(BM_SimulateSC)->Unit(benchmark::kMillisecond);
void BM_SimulateSCEC(benchmark::State& state) { simulate_scheme(state, sim::Scheme::kSC_EC); }
BENCHMARK(BM_SimulateSCEC)->Unit(benchmark::kMillisecond);
void BM_SimulateFCEC(benchmark::State& state) { simulate_scheme(state, sim::Scheme::kFC_EC); }
BENCHMARK(BM_SimulateFCEC)->Unit(benchmark::kMillisecond);
void BM_SimulateHierGD(benchmark::State& state) {
  simulate_scheme(state, sim::Scheme::kHierGD);
}
BENCHMARK(BM_SimulateHierGD)->Unit(benchmark::kMillisecond);
void BM_SimulateSquirrel(benchmark::State& state) {
  simulate_scheme(state, sim::Scheme::kSquirrel);
}
BENCHMARK(BM_SimulateSquirrel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Perf-regression smoke bench: simulated request throughput per scheme on a
// small fixed workload, plus wall clock per section, written to
// BENCH_perf_smoke.json. scripts/check_perf.py compares the report against
// the committed baseline (bench/baselines/BENCH_perf_smoke.json) with a
// tolerance band, so hot-path regressions fail CI instead of landing
// silently.
//
// The workload is intentionally FIXED (50k requests; WEBCACHE_BENCH_SCALE is
// ignored) so reports stay comparable across runs and machines.
//
// Besides the per-scheme simulation throughput, the report covers the
// streaming trace pipeline: ProWGen -> wctrace compile throughput
// ("trace_compile"), mmap-streamed replay throughput with a replay chunk
// >= 10x smaller than the trace ("trace_replay_stream"), a byte-equality
// tripwire against the materialized replay, and the process peak RSS as a
// bounded-memory proxy (section "peak_rss_mb"; informational, not gated).
//
// The "sharded_run" section measures the intra-run sharded engine on a
// larger single Hier-GD simulation (8 clusters): throughput at 1, 2 and 8
// shards plus the 8-shard speedup ratio, reported as the hard gate
// "sharded_speedup_8x" (>= 3x, enforced only on machines with >= 8 hardware
// threads — elsewhere the value is informational). A metrics tripwire pins
// the 1-shard and 8-shard runs to identical results.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/policy.hpp"
#include "directory/directory.hpp"
#include "sim/simulator.hpp"
#include "workload/wctrace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

int main() {
  using namespace webcache;
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  bench::BenchReport report("perf_smoke");

  const auto t_gen = Clock::now();
  workload::ProWGenConfig wl;
  wl.total_requests = 50'000;
  wl.distinct_objects = 10'000;
  wl.one_timer_fraction = 0.5;
  wl.zipf_alpha = 0.7;
  wl.lru_stack_fraction = 0.2;
  wl.clients = 100;
  wl.seed = 2003;
  const auto trace = workload::ProWGen(wl).generate();
  report.add_section("generate_trace", seconds_since(t_gen));

  const ObjectNum infinite = core::cluster_infinite_cache_size(trace, 2);

  std::vector<sim::Scheme> schemes(sim::kAllSchemes.begin(), sim::kAllSchemes.end());
  schemes.push_back(sim::Scheme::kSquirrel);

  // The ring-key table is a pure function of the trace's object universe;
  // production sweeps build it once and share it across schemes (run_sweep),
  // so the bench does the same instead of timing SHA-1 table construction
  // inside each P2P scheme's window.
  const auto t_ids = Clock::now();
  const auto object_ids = directory::build_object_id_table(trace.distinct_objects);
  report.add_section("build_object_id_table", seconds_since(t_ids));

  std::cout << std::left << std::setw(10) << "# scheme" << std::setw(14)
            << "requests/s" << "\n";
  const auto t_all = Clock::now();
  for (const auto scheme : schemes) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.proxy_capacity = std::max<std::size_t>(1, infinite / 4);
    cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);
    cfg.object_ids = object_ids;  // only Hier-GD/Squirrel read it
    const auto t0 = Clock::now();
    const auto metrics = sim::run_simulation(cfg, trace);
    const double dt = seconds_since(t0);
    (void)metrics;
    const double rps = static_cast<double>(trace.size()) / dt;
    report.add_throughput(std::string(sim::to_string(scheme)), rps);
    std::cout << std::setw(10) << sim::to_string(scheme) << std::fixed
              << std::setprecision(0) << rps << "\n";
  }
  report.add_section("simulate_all_schemes", seconds_since(t_all));

  // --- modern-policy frontier ---------------------------------------------
  {
    // W-TinyLFU and ARC on a standalone proxy (NC with a policy override):
    // their per-request cost — sketch probes, segment splices, ghost-list
    // bookkeeping — must stay in the same band as the classic policies above.
    const auto t_policy = Clock::now();
    const struct {
      const char* key;
      cache::PolicyKind kind;
    } frontier[] = {
        {"policy_wtlfu", cache::PolicyKind::kWTinyLfu},
        {"policy_arc", cache::PolicyKind::kArc},
    };
    for (const auto& p : frontier) {
      sim::SimConfig cfg;
      cfg.scheme = sim::Scheme::kNC;
      cfg.proxy_capacity = std::max<std::size_t>(1, infinite / 4);
      cfg.proxy_policy = p.kind;
      const auto t0 = Clock::now();
      (void)sim::run_simulation(cfg, trace);
      const double rps = static_cast<double>(trace.size()) / seconds_since(t0);
      report.add_throughput(p.key, rps);
      std::cout << std::setw(10) << ("# " + std::string(p.key)) << std::fixed
                << std::setprecision(0) << rps << "\n";
    }
    report.add_section("policy_frontier", seconds_since(t_policy));
  }

  // --- streaming trace pipeline -------------------------------------------
  {
    std::string dir = ".";
    if (const char* env = std::getenv("WEBCACHE_BENCH_JSON_DIR")) dir = env;
    const std::string wct_path = dir + "/perf_smoke_trace.wct";

    // Compile: generator streamed straight into the writer, no vector.
    const auto t_compile = Clock::now();
    {
      workload::WctraceWriter writer(wct_path);
      writer.set_distinct_objects(wl.distinct_objects);
      workload::ProWGen(wl).generate(
          [&writer](const Request& r) { writer.append(r); });
      writer.finalize();
    }
    const double dt_compile = seconds_since(t_compile);
    report.add_section("trace_pipeline_compile", dt_compile);
    report.add_throughput("trace_compile",
                          static_cast<double>(wl.total_requests) / dt_compile);

    // Streamed replay through the mmap reader with an out-of-core shape:
    // the chunk budget is >= 10x smaller than the trace.
    const workload::MmapTraceSource streamed(wct_path);
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSC;
    cfg.proxy_capacity = std::max<std::size_t>(1, infinite / 4);
    cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);
    cfg.replay_chunk = 4096;
    const auto t_replay = Clock::now();
    const auto streamed_metrics = sim::run_simulation(cfg, streamed);
    const double dt_replay = seconds_since(t_replay);
    report.add_section("trace_pipeline_replay", dt_replay);
    report.add_throughput("trace_replay_stream",
                          static_cast<double>(streamed.size()) / dt_replay);
    std::cout << std::setw(10) << "# compile" << std::fixed << std::setprecision(0)
              << static_cast<double>(wl.total_requests) / dt_compile << "\n"
              << std::setw(10) << "# stream"
              << static_cast<double>(streamed.size()) / dt_replay << "\n";

    // Equality tripwire: the streamed replay must be indistinguishable from
    // the materialized one.
    const auto reference = sim::run_simulation(cfg, trace);
    if (streamed_metrics.requests != reference.requests ||
        streamed_metrics.hits_local_proxy != reference.hits_local_proxy ||
        streamed_metrics.hits_remote_proxy != reference.hits_remote_proxy ||
        streamed_metrics.server_fetches != reference.server_fetches ||
        streamed_metrics.total_latency != reference.total_latency) {
      std::cerr << "perf_smoke: streamed replay diverged from materialized replay\n";
      return 1;
    }

#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      // Linux reports ru_maxrss in KiB. Informational (not gated): the
      // interesting signal is that it stays flat as traces grow.
      report.add_section("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
#endif
    std::remove(wct_path.c_str());
  }

  // --- intra-run sharding ---------------------------------------------------
  {
    // A single LARGE Hier-GD run is the configuration sharding exists for:
    // one simulation, 8 clusters, too long to wait out sequentially. The
    // workload is fixed like everything else in this bench.
    workload::ProWGenConfig swl;
    swl.total_requests = 160'000;
    swl.distinct_objects = 16'000;
    swl.one_timer_fraction = 0.5;
    swl.zipf_alpha = 0.7;
    swl.lru_stack_fraction = 0.2;
    swl.clients = 100;
    swl.seed = 2003;
    const auto t_sgen = Clock::now();
    const auto strace = workload::ProWGen(swl).generate();
    report.add_section("sharded_run_generate", seconds_since(t_sgen));

    sim::SimConfig base;
    base.scheme = sim::Scheme::kHierGD;
    base.num_proxies = 8;
    base.clients_per_cluster = 25;
    const ObjectNum sinf = core::cluster_infinite_cache_size(strace, base.num_proxies);
    base.proxy_capacity = std::max<std::size_t>(1, sinf / 4);
    base.client_cache_capacity = std::max<std::size_t>(1, sinf / 500);
    base.object_ids = directory::build_object_id_table(strace.distinct_objects);

    double rps1 = 0.0;
    sim::Metrics one{};
    const auto t_shard = Clock::now();
    for (const unsigned shards : {1U, 2U, 8U}) {
      sim::SimConfig cfg = base;
      cfg.sim_shards = shards;
      const auto t0 = Clock::now();
      const auto metrics = sim::run_simulation(cfg, strace);
      const double rps = static_cast<double>(strace.size()) / seconds_since(t0);
      report.add_throughput("sharded_hier_gd_s" + std::to_string(shards), rps);
      std::cout << std::setw(10) << ("# s" + std::to_string(shards)) << std::fixed
                << std::setprecision(0) << rps << "\n";
      if (shards == 1) {
        rps1 = rps;
        one = metrics;
      } else if (shards == 8) {
        // Determinism tripwire: any shard count must produce THE result.
        if (metrics.requests != one.requests ||
            metrics.hits_local_p2p != one.hits_local_p2p ||
            metrics.server_fetches != one.server_fetches ||
            metrics.total_latency != one.total_latency) {
          std::cerr << "perf_smoke: 8-shard run diverged from 1-shard run\n";
          return 1;
        }
        const double speedup = rps1 > 0.0 ? rps / rps1 : 0.0;
        const bool enforce = std::thread::hardware_concurrency() >= 8;
        report.add_gate("sharded_speedup_8x", speedup, 3.0, enforce);
        std::cout << std::setw(10) << "# speedup" << std::setprecision(2) << speedup
                  << (enforce ? "" : " (not enforced: < 8 hardware threads)") << "\n";
      }
    }
    report.add_section("sharded_run", seconds_since(t_shard));

#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      report.add_section("sharded_peak_rss_mb",
                         static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
#endif
  }

  const auto path = report.write_json();
  if (path.empty()) return 1;
  std::cout << "# wrote " << path << "\n";
  return 0;
}

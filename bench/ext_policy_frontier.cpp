// Extension bench: the modern-policy frontier.
//
// The paper's schemes predate TinyLFU admission (Einziger/Friedman 2014)
// and adaptive eviction (ARC, Megiddo/Modha FAST'03). This bench asks how
// far those post-2003 single-cache policies close the gap the paper bridges
// with cooperation: it sweeps every cache::PolicyKind through a standalone
// proxy (the NC scheme with --proxy-policy) across cache sizes and two
// ProWGen settings — the paper default, and a scan/one-timer-heavy stream
// where frequency-blind LRU drowns in single-use objects — then prints the
// Hier-GD reference row. The expected shape: W-TinyLFU > LRU on the
// scan-heavy setting at every size (the doorkeeper absorbs one-timers), ARC
// between them, and cooperative Hier-GD still ahead overall because no
// admission policy can serve a miss from a neighbour's cache.
//
// With --metrics-out each (setting, policy) sweep writes a
// "webcache-metrics/1" export labelled "<setting>-<policy>", covering the
// policy.* counter namespace end to end.
#include "bench_common.hpp"

#include <iomanip>

#include "cache/policy.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("ext_policy_frontier");
  bench::ObsOptions obs(argc, argv);

  const cache::PolicyKind policies[] = {
      cache::PolicyKind::kLru,        cache::PolicyKind::kLfu,
      cache::PolicyKind::kGreedyDual, cache::PolicyKind::kTinyLfuLru,
      cache::PolicyKind::kWTinyLfu,   cache::PolicyKind::kArc,
  };
  const std::vector<double> percents = {10.0, 30.0, 60.0};

  struct Setting {
    std::string label;
    double one_timers;
    double alpha;
    // Objects per request, or 0 to keep the paper universe. The scan-heavy
    // setting must scale its universe WITH the request volume: with a fixed
    // 10k-object universe the one-timer mass shrinks to a rounding error as
    // WEBCACHE_BENCH_SCALE grows (8k single-use requests out of 500k is not
    // a scan flood), and the setting silently stops testing scan resistance.
    double objects_per_request;
  };
  const Setting settings[] = {
      {"paper", 0.5, 0.7, 0.0},
      {"scan-heavy", 0.8, 0.55, 0.2},
  };

  std::cout << std::fixed << std::setprecision(2);
  double lru_scan_30 = 0.0, wtlfu_scan_30 = 0.0;

  for (const auto& setting : settings) {
    auto wl = bench::paper_workload();
    wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 60'000);
    wl.one_timer_fraction = setting.one_timers;
    wl.zipf_alpha = setting.alpha;
    if (setting.objects_per_request > 0.0) {
      wl.distinct_objects = static_cast<ObjectNum>(
          static_cast<double>(wl.total_requests) * setting.objects_per_request);
    }
    const auto source = bench::bench_source(wl);

    std::cout << "# Standalone-proxy hit ratio (%) per policy, " << setting.label
              << " workload (one-timers " << setting.one_timers * 100.0
              << "%, alpha " << setting.alpha << ")\n";
    std::cout << std::left << std::setw(14) << "# policy";
    for (const double pct : percents) {
      std::cout << "cache" << std::setprecision(0) << pct << "%   ";
    }
    std::cout << std::setprecision(2) << "\n";

    for (const auto policy : policies) {
      core::SweepConfig sweep;
      sweep.schemes = {sim::Scheme::kNC};
      sweep.cache_percents = percents;
      sweep.base.proxy_policy = policy;
      sweep.threads = bench::bench_threads();
      obs.apply(sweep);
      const auto result = core::run_sweep(*source, sweep);
      obs.write(result, "ext_policy_frontier",
                setting.label + "-" + std::string(cache::to_string(policy)));

      std::cout << std::setw(14) << cache::to_string(policy);
      for (std::size_t i = 0; i < percents.size(); ++i) {
        const double hit_pct = 100.0 * result.metrics[i][0].hit_ratio();
        std::cout << std::setw(12) << hit_pct;
        if (setting.label == "scan-heavy" && percents[i] == 30.0) {
          if (policy == cache::PolicyKind::kLru) lru_scan_30 = hit_pct;
          if (policy == cache::PolicyKind::kWTinyLfu) wtlfu_scan_30 = hit_pct;
        }
      }
      std::cout << "\n";
    }

    // Cooperative reference: the paper's Hier-GD at the same proxy sizes
    // (plus the Section 5.1 client donations its P2P tier pools).
    {
      core::SweepConfig sweep;
      sweep.schemes = {sim::Scheme::kHierGD};
      sweep.cache_percents = percents;
      sweep.threads = bench::bench_threads();
      const auto result = core::run_sweep(*source, sweep);
      std::cout << std::setw(14) << "Hier-GD";
      for (std::size_t i = 0; i < percents.size(); ++i) {
        std::cout << std::setw(12) << 100.0 * result.metrics[i][0].hit_ratio();
      }
      std::cout << "(cooperative reference)\n";
    }
    std::cout << "\n";
  }

  std::cout << "# scan-heavy @30%: W-TinyLFU " << wtlfu_scan_30 << "% vs LRU "
            << lru_scan_30 << "%\n";
  if (wtlfu_scan_30 <= lru_scan_30) {
    std::cerr << "ext_policy_frontier: W-TinyLFU did not beat LRU on the "
                 "scan-heavy setting\n";
    return 1;
  }
  return 0;
}

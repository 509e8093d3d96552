// Quickstart: generate a synthetic Web workload, run all seven caching
// schemes at one proxy-cache size, and print the latency gain of each over
// the non-cooperative baseline — the paper's headline comparison in a dozen
// lines of API.
//
//   $ ./quickstart [requests] [distinct-objects]
//
// A malformed count, or one the workload cannot satisfy, exits 2.
#include <iomanip>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"

int main(int argc, char** argv) {
  using namespace webcache;

  // 1. A ProWGen workload: Zipf popularity, one-timers, temporal locality.
  workload::ProWGenConfig wl;
  wl.total_requests = 200'000;
  wl.distinct_objects = 5'000;
  workload::Trace trace;
  try {
    if (argc > 1) {
      wl.total_requests =
          core::parse_integer("requests", argv[1], std::numeric_limits<std::uint64_t>::max());
    }
    if (argc > 2) {
      wl.distinct_objects = static_cast<ObjectNum>(core::parse_integer(
          "distinct-objects", argv[2], std::numeric_limits<ObjectNum>::max()));
    }
    trace = workload::ProWGen(wl).generate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::cout << "workload: " << trace.size() << " requests over " << trace.universe
            << " distinct objects\n";

  // 2. A two-proxy cluster, 100 clients per proxy, proxy caches sized to
  //    30% of the infinite cache size (the regime where client caches help
  //    the most).
  core::SweepConfig sweep;
  sweep.cache_percents = {30};
  sweep.base.num_proxies = 2;
  sweep.base.clients_per_cluster = 100;

  const auto result = core::run_sweep(trace, sweep);

  // 3. The paper's metric: latency gain over NC.
  std::cout << "\nproxy cache = 30% of infinite cache size ("
            << result.infinite_cache_size << " objects); each client contributes "
            << result.client_cache_capacity << " objects to the P2P cache\n\n";
  std::cout << std::left << std::setw(10) << "scheme" << std::setw(14) << "latency gain"
            << std::setw(14) << "mean latency" << "hit ratio\n";
  std::cout << std::fixed << std::setprecision(2);
  for (std::size_t k = 0; k < result.schemes.size(); ++k) {
    const auto& m = result.metrics[0][k];
    std::cout << std::setw(10) << sim::to_string(result.schemes[k]) << std::setw(14)
              << result.gains[0][k] << std::setw(14) << m.mean_latency()
              << 100.0 * m.hit_ratio() << "%\n";
  }
  return 0;
}

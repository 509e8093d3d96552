// Extension bench: quantifying the paper's Section 6 comparison against
// Squirrel (Iyer/Rowstron/Druschel, PODC'02).
//
// The paper argues its proxy + P2P-client-cache architecture beats a
// proxy-less Squirrel deployment because (a) the proxy tier serves the hot
// set at Tl < Tp2p and (b) proxies can share across organizations where
// firewalled client caches cannot. This bench runs both on the same client
// population and reports where each request class lands.
#include "bench_common.hpp"

#include <iomanip>

int main() {
  using namespace webcache;
  bench::SectionTimer timer("ext_squirrel");

  auto wl = bench::paper_workload();
  wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 50'000);
  const auto source = bench::bench_source(wl);
  const auto& trace = *source;
  const auto infinite = core::cluster_infinite_cache_size(trace, 2);

  struct Variant {
    std::string label;
    sim::SimConfig cfg;
  };
  std::vector<Variant> variants;

  // Equal-storage comparison: Squirrel gets the same TOTAL budget Hier-GD
  // deploys (proxy cache + donated client storage), spread over its clients
  // — its browser-cache pool is its only storage, and the Squirrel paper
  // assumes substantial per-client contributions.
  const std::size_t proxy_budget = std::max<std::size_t>(1, infinite / 5);
  const std::size_t per_client_donation = std::max<std::size_t>(1, infinite / 1000);
  {
    sim::SimConfig c;
    c.scheme = sim::Scheme::kSquirrel;
    c.clients_per_cluster = 100;
    c.client_cache_capacity =
        std::max<std::size_t>(1, (proxy_budget + 100 * per_client_donation) / 100);
    variants.push_back({"Squirrel", c});
  }
  {
    // Same total budget: proxy at 20% of the working set + client donations.
    sim::SimConfig c;
    c.scheme = sim::Scheme::kHierGD;
    c.clients_per_cluster = 100;
    c.client_cache_capacity = per_client_donation;
    c.proxy_capacity = proxy_budget;
    variants.push_back({"Hier-GD", c});
  }
  {
    // Proxy-only deployment of the same proxy budget, cooperative.
    sim::SimConfig c;
    c.scheme = sim::Scheme::kSC;
    c.clients_per_cluster = 100;
    c.proxy_capacity = proxy_budget;
    variants.push_back({"SC", c});
  }

  std::cout << "# Squirrel vs proxy-based deployments (2 organizations, gains vs NC "
               "with the same proxy budget)\n";
  std::cout << std::left << std::setw(12) << "# system" << std::setw(10) << "gain%"
            << std::setw(14) << "mean-latency" << std::setw(12) << "p2p-hits%"
            << std::setw(14) << "proxy-hits%" << std::setw(12) << "remote%"
            << "server%\n";
  std::cout << std::fixed << std::setprecision(2);

  for (auto& v : variants) {
    const auto run = core::run_single(trace, v.cfg);
    const auto& m = run.metrics;
    const auto pct = [&](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(m.requests);
    };
    std::cout << std::setw(12) << v.label << std::setw(10) << run.gain_percent
              << std::setw(14) << m.mean_latency() << std::setw(12)
              << pct(m.hits_local_p2p) << std::setw(14) << pct(m.hits_local_proxy)
              << std::setw(12) << pct(m.hits_remote_proxy + m.hits_remote_p2p)
              << pct(m.server_fetches) << "\n";
  }
  return 0;
}

// The paper's Figures 2-5 as data: a name-keyed table of figure specs and one
// run-and-print path for all of them.
//
//   figures [NAME...] [--metrics-out FILE] [--snapshot-interval N]
//
// Prints the named figures in paper order, or all eight when no name is
// given; an unknown name exits 2. bench_common.hpp documents the environment
// knobs and the export flags. A run of several figures also puts each
// figure's name into its export file names, so no two exports share a path.
//
// Every figure sweeps the proxy cache size from 10% to 100% of the infinite
// cache size over the paper's setup: 2 proxies and 100 clients per cluster,
// each client contributing 0.1% of the infinite cache size. A figure is a
// list of series, one sweep each. A series changes either the ProWGen
// workload, so it replays a trace of its own (Figures 3 and 4), or the sweep
// over the figure's one shared trace (Figure 5).
#include "bench_common.hpp"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/ucb_like.hpp"

namespace {

using namespace webcache;
using sim::Scheme;
using Source = std::shared_ptr<const workload::TraceSource>;

Source paper_source() { return bench::bench_source(bench::paper_workload()); }

/// The UCB Home-IP trace is no longer obtainable; the UCB-like generator
/// reproduces its published statistics (DESIGN.md, "Substitutions"). About
/// 1/10 of the original's 9.2M requests keeps the gain curves stable.
Source ucb_source() {
  workload::UcbLikeConfig ucb;
  ucb.scale = std::max(0.1 * bench::bench_scale(), 0.002);
  return workload::make_source(workload::generate_ucb_like(ucb));
}

void zipf_alpha(workload::ProWGenConfig& wl, double alpha) { wl.zipf_alpha = alpha; }

void lru_stack(workload::ProWGenConfig& wl, double fraction) {
  wl.lru_stack_fraction = fraction;
  // Full recency bias, so the stack knob spans its whole range (prowgen.hpp).
  wl.recency_bias = 0.5;
}

void ts_over_tc(core::SweepConfig& cfg, double ratio) {
  cfg.base.latencies = net::LatencyModel::from_ratios(ratio);
}

void ts_over_tl(core::SweepConfig& cfg, double ratio) {
  cfg.base.latencies = net::LatencyModel::from_ratios(10.0, ratio);
}

void client_cluster(core::SweepConfig& cfg, double clients) {
  cfg.base.clients_per_cluster = static_cast<ClientNum>(clients);
}

void proxy_cluster(core::SweepConfig& cfg, double proxies) {
  cfg.base.num_proxies = static_cast<unsigned>(proxies);
}

struct Figure {
  /// The CLI name and the exports' bench name; the part before '_' labels
  /// the timing line.
  std::string name;
  /// "{requests}" takes the trace's request count. A caption with
  /// "{scheme}" prints one panel per scheme, a column per series; any other
  /// prints one table with every series' columns, or, without `columns`,
  /// core::print_gain_table of the one series.
  std::string caption;
  std::string columns{};
  std::vector<Scheme> schemes{};    // every series sweeps these; empty: all seven
  std::vector<Scheme> reference{};  // swept once first, unchanged, as label "ref"
  /// One sweep per (export label, value), the value passed to one of the
  /// `vary_*` changes.
  std::vector<std::pair<std::string, double>> series;
  void (*vary_workload)(workload::ProWGenConfig&, double) = nullptr;
  void (*vary_sweep)(core::SweepConfig&, double) = nullptr;
  Source (*source)() = paper_source;  // the shared trace
};

/// Figures 2-5 in paper order.
std::vector<Figure> paper_figures() {
  const std::vector<Scheme> panels = {Scheme::kFC, Scheme::kSC_EC, Scheme::kFC_EC,
                                      Scheme::kHierGD};
  const std::vector<Scheme> hier_gd = {Scheme::kHierGD};
  return {
      // All seven schemes over the paper's default workload.
      {.name = "fig2a_cache_size",
       .caption = "Figure 2(a): latency gain (%) vs proxy cache size (% of infinite cache "
                  "size), synthetic workload",
       .series = {{"", 0.0}}},
      // The same ordering as 2(a) at lower gains: a heavier one-timer mix.
      {.name = "fig2b_ucb",
       .caption = "Figure 2(b): latency gain (%) vs proxy cache size (% of infinite cache "
                  "size), UCB-like trace ({requests} requests)",
       .series = {{"", 0.0}},
       .source = ucb_source},
      // Less skew (smaller alpha, a larger working set), larger gains:
      // cooperation helps only beyond what one cache already captures.
      {.name = "fig3_popularity",
       .caption = "Figure 3 panel {scheme}/NC: latency gain (%) vs cache size for alpha sweep",
       .columns = "cache%   alpha=0.5  alpha=0.7  alpha=1.0",
       .schemes = panels,
       .series = {{"alpha50", 0.5}, {"alpha70", 0.7}, {"alpha100", 1.0}},
       .vary_workload = zipf_alpha},
      // Weaker locality (a smaller stack), larger gains for the coordinated
      // schemes: strong locality makes even the isolated NC cache effective.
      {.name = "fig4_temporal_locality",
       .caption =
           "Figure 4 panel {scheme}/NC: latency gain (%) vs cache size for LRU stack sweep",
       .columns = "cache%   stack=5%   stack=20%  stack=60%",
       .schemes = panels,
       .series = {{"stack5", 0.05}, {"stack20", 0.20}, {"stack60", 0.60}},
       .vary_workload = lru_stack},
      // The cheaper a cooperating proxy is relative to the server, the more
      // cooperation pays.
      {.name = "fig5a_proxy_latency",
       .caption = "Figure 5(a) Hier-GD/NC: latency gain (%) vs cache size for Ts/Tc ratio sweep",
       .columns = "cache%   ratio=2    ratio=5    ratio=10",
       .schemes = hier_gd,
       .series = {{"ratio2", 2.0}, {"ratio5", 5.0}, {"ratio10", 10.0}},
       .vary_sweep = ts_over_tc},
      // A faster last hop makes every cached outcome cheaper.
      {.name = "fig5b_client_latency",
       .caption = "Figure 5(b) Hier-GD/NC: latency gain (%) vs cache size for Ts/Tl ratio sweep",
       .columns = "cache%   ratio=5    ratio=10   ratio=20",
       .schemes = hier_gd,
       .series = {{"ratio5", 5.0}, {"ratio10", 10.0}, {"ratio20", 20.0}},
       .vary_sweep = ts_over_tl},
      // More client caches, more gain, most at small proxy caches; SC and FC
      // use no client caches and serve as proxy-only references.
      {.name = "fig5c_client_cluster",
       .caption = "Figure 5(c): latency gain (%) vs cache size; Hier-GD for client cluster "
                  "sizes, SC/FC reference",
       .columns = "cache%   SC         FC         HierGD(100) HierGD(400) HierGD(800) "
                  "HierGD(1000)",
       .schemes = hier_gd,
       .reference = {Scheme::kSC, Scheme::kFC},
       .series = {{"clients100", 100}, {"clients400", 400}, {"clients800", 800},
                  {"clients1000", 1000}},
       .vary_sweep = client_cluster},
      // More cooperating proxies, with their client clusters, hold more of
      // what a proxy misses.
      {.name = "fig5d_proxy_cluster",
       .caption = "Figure 5(d) Hier-GD/NC: latency gain (%) vs cache size for proxy cluster sizes",
       .columns = "cache%   2 proxies  5 proxies  10 proxies",
       .schemes = hier_gd,
       .series = {{"proxies2", 2}, {"proxies5", 5}, {"proxies10", 10}},
       .vary_sweep = proxy_cluster},
  };
}

/// `text` with its first `key` replaced by `value`.
std::string fill(std::string text, std::string_view key, std::string_view value) {
  if (const auto at = text.find(key); at != std::string::npos) text.replace(at, key.size(), value);
  return text;
}

void run_figure(const Figure& fig, const bench::ObsOptions& obs, unsigned threads) {
  const Source shared = fig.vary_workload ? nullptr : fig.source();
  std::uint64_t requests = 0;
  std::vector<core::SweepResult> results;
  const auto run = [&](const Source& source, core::SweepConfig cfg, const std::string& label) {
    cfg.threads = threads;
    obs.apply(cfg);
    requests = source->size();
    results.push_back(core::run_sweep(*source, cfg));
    obs.write(results.back(), fig.name, label);
  };

  core::SweepConfig base;
  if (!fig.schemes.empty()) base.schemes = fig.schemes;
  if (!fig.reference.empty()) {
    core::SweepConfig cfg = base;
    cfg.schemes = fig.reference;
    run(shared, cfg, "ref");
  }
  for (const auto& [label, value] : fig.series) {
    core::SweepConfig cfg = base;
    if (fig.vary_sweep) fig.vary_sweep(cfg, value);
    if (fig.vary_workload) {
      auto wl = bench::paper_workload();
      fig.vary_workload(wl, value);
      run(bench::bench_source(wl), cfg, label);
    } else {
      run(shared, cfg, label);
    }
  }

  const auto caption = fill(fig.caption, "{requests}", std::to_string(requests));
  if (fig.columns.empty()) {
    core::print_gain_table(std::cout, results.front(), caption);
    return;
  }
  const bool panels = caption.find("{scheme}") != std::string::npos;
  const auto& percents = results.front().cache_percents;
  for (std::size_t p = 0; p < (panels ? fig.schemes.size() : 1); ++p) {
    const auto title = panels ? fill(caption, "{scheme}", sim::to_string(fig.schemes[p])) : caption;
    std::cout << "# " << title << "\n# " << fig.columns << "\n";
    for (std::size_t i = 0; i < percents.size(); ++i) {
      std::cout << percents[i];
      for (const auto& result : results) {
        if (panels) {
          std::cout << "\t" << result.gains[i][p];
        } else {
          for (const double gain : result.gains[i]) std::cout << "\t" << gain;
        }
      }
      std::cout << "\n";
    }
    if (panels) std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto table = paper_figures();

  // Figure names are the operands; every --flag and its value go to ObsOptions.
  std::vector<char*> flags = {argv[0]};
  std::vector<std::string_view> names;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--")) {
      flags.push_back(argv[i]);
      if (i + 1 < argc) flags.push_back(argv[++i]);
    } else {
      names.emplace_back(argv[i]);
    }
  }
  for (const auto name : names) {
    if (std::ranges::none_of(table, [name](const Figure& fig) { return fig.name == name; })) {
      std::cerr << "error: unknown figure '" << name << "'; the figures are";
      for (const auto& fig : table) std::cerr << " " << fig.name;
      std::cerr << "\n";
      return 2;
    }
  }
  const bench::ObsOptions obs(static_cast<int>(flags.size()), flags.data());
  const unsigned threads = bench::bench_threads();

  std::vector<const Figure*> chosen;
  for (const auto& fig : table) {
    if (names.empty() || std::ranges::find(names, fig.name) != names.end()) chosen.push_back(&fig);
  }
  for (const Figure* fig : chosen) {
    bench::SectionTimer timer(fig->name.substr(0, fig->name.find('_')));
    // A fresh stream format per figure: print_gain_table leaves std::fixed,
    // setprecision(2) and std::left behind.
    std::cout.copyfmt(std::ios(nullptr));
    run_figure(*fig, chosen.size() > 1 ? obs.tagged(fig->name) : obs, threads);
  }
  return 0;
}

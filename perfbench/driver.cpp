// Repository benchmark driver. One process runs one workload:
//
//   perfbench_driver --workload <fig2a-sweep|ucb-stream|sharded-churn>
//                    --seed N --seconds S --trace 0|1
//                    [--scale X] [--work-dir DIR] [--digests FILE]
//                    [--record-digests FILE]
//
// It generates the workload's inputs from the seed, then repeats
// set-up + replay iterations until S seconds have passed (at least one),
// checking every simulation's webcache-metrics/1 export. The last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See perfbench/README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "directory/directory.hpp"
#include "fault/churn_schedule.hpp"
#include "layers.hpp"
#include "outcome.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_stats.hpp"
#include "workload/ucb_like.hpp"
#include "workload/wctrace.hpp"

namespace perfbench {
namespace {

namespace core = webcache::core;
namespace sim = webcache::sim;
namespace workload = webcache::workload;
namespace obs = webcache::obs;
using webcache::ObjectNum;
using webcache::Request;

// Process-wide defaults the libraries and bench helpers read from the
// environment. Any of them would silently change what is measured.
constexpr const char* kPinnedEnv[] = {
    "WEBCACHE_PIPELINE", "WEBCACHE_REPLAY_CHUNK", "WEBCACHE_SIM_SHARDS", "WEBCACHE_POLICY",
    "WEBCACHE_THREADS",  "WEBCACHE_TRACE_BIN",    "WEBCACHE_BENCH_SCALE",
};

// UcbLikeConfig's default scale: ~2.31M requests over ~257k objects.
constexpr double kUcbScale = 0.25;
constexpr double kStreamProxyPercent = 10.0;
constexpr double kClientPercent = 0.1;
constexpr std::size_t kSinkBatch = 65536;

enum class Kind { kFig2aSweep, kUcbStream, kShardedChurn };

struct Options {
  std::string workload;
  Kind kind = Kind::kFig2aSweep;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".bench_build";
  std::string digests;
  std::string record_digests;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_driver: " << message
            << "\nusage: perfbench_driver --workload fig2a-sweep|ucb-stream|sharded-churn"
               " --seed N --seconds S --trace 0|1 [--scale X] [--work-dir DIR]"
               " [--digests FILE] [--record-digests FILE]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    usage("invalid value for " + flag + ": " + text);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const double v = parse_number(flag, value);
      if (v < 0 || v != std::floor(v) || v > 9.0e15) usage("--seed must be a whole number");
      o.seed = static_cast<std::uint64_t>(v);
      o.seed_given = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, value);
      if (o.seconds <= 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = parse_number(flag, value);
      if (o.scale <= 0 || o.scale > 1) usage("--scale must be in (0, 1]");
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--digests") {
      o.digests = value;
    } else if (flag == "--record-digests") {
      o.record_digests = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload == "fig2a-sweep") {
    o.kind = Kind::kFig2aSweep;
  } else if (o.workload == "ucb-stream") {
    o.kind = Kind::kUcbStream;
  } else if (o.workload == "sharded-churn") {
    o.kind = Kind::kShardedChurn;
  } else {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!o.seed_given) usage("--seed is required");
  return o;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Host CPU time stolen from this VM so far, and all CPU time, in ticks
/// (/proc/stat); {0, 0} where unavailable. Printed as context: steal is the
/// main source of run-to-run noise on a shared VM.
std::pair<double, double> steal_and_total_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double steal = 0.0;
  double total = 0.0;
  if (stat >> cpu && cpu == "cpu") {
    double v = 0.0;
    for (int field = 0; field < 8 && stat >> v; ++field) {
      total += v;
      if (field == 7) steal = v;
    }
  }
  return {steal, total};
}

unsigned hardware_threads() { return std::max(1U, std::thread::hardware_concurrency()); }

unsigned worker_threads() { return std::min(4U, hardware_threads()); }

/// Shards of the sharded-churn workload. Half the hardware threads, not all
/// of them: a shard that loses its CPU stalls every other shard at the epoch
/// barrier. On a 4-vCPU VM, ten 45 s runs alternating 2 and 4 shards gave a
/// replay_rps interquartile range of 6.8% of the median at 2 shards and 11.4%
/// at 4 (perfbench/README.md, "Run-to-run noise").
unsigned shard_count() { return std::min(4U, std::max(1U, hardware_threads() / 2)); }

std::uint64_t default_seed(Kind kind) { return kind == Kind::kFig2aSweep ? 2003 : 1997; }

std::string scale_label(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", scale);
  return buf;
}

/// Where a workload's compiled trace lives; removed when the run ends.
std::string trace_path(const Options& o) {
  return o.work_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".wct";
}

struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t percent_of(double percent, ObjectNum infinite) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(percent / 100.0 * static_cast<double>(infinite))));
}

// --- one iteration: set-up, then replay ------------------------------------------

/// One simulation of the workload: the operation the benchmark counts.
struct SimOp {
  std::string label;
  sim::SimConfig config;
  std::shared_ptr<obs::Registry> registry;
  sim::Metrics metrics;
  std::string error;    ///< non-empty when the run threw
  std::uint32_t run = 0;  ///< span run id shared by its construction and replay
  double replay_s = 0.0;  ///< wall seconds of its Simulator::run (stream workloads)
};

/// Everything the replay needs, built by set-up.
struct Prepared {
  std::shared_ptr<const workload::TraceSource> source;
  // fig2a-sweep
  core::SweepConfig sweep;
  // ucb-stream / sharded-churn
  std::shared_ptr<const std::vector<webcache::Uint128>> object_ids;
  std::vector<SimOp> ops;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  double ctor_s = 0.0;
};

struct Iteration {
  double setup_s = 0.0;
  double replay_wall_s = 0.0;
  double replay_cpu_s = 0.0;
  std::uint64_t requests = 0;  ///< simulated across all of the iteration's runs
  std::vector<SimOp> ops;
  Prepared prep;  ///< kept so the traced mode can replay layers on the same inputs
};

sim::SimConfig stream_base_config(Kind kind, ObjectNum infinite, std::uint64_t trace_length,
                                  double stream_scale,
                                  std::shared_ptr<const std::vector<webcache::Uint128>> ids) {
  sim::SimConfig cfg;
  cfg.num_proxies = kind == Kind::kUcbStream ? 2 : 8;
  cfg.clients_per_cluster = kind == Kind::kUcbStream ? 100 : 25;
  cfg.proxy_capacity = percent_of(kStreamProxyPercent, infinite);
  cfg.client_cache_capacity = percent_of(kClientPercent, infinite);
  cfg.object_ids = std::move(ids);
  if (kind == Kind::kShardedChurn) {
    cfg.scheme = sim::Scheme::kHierGD;
    cfg.sim_shards = shard_count();
    cfg.browser_cache_capacity = 20;
    cfg.p2p_loss_rate = 0.01;
    // webcache_cli's --churn-crashes 5 --churn-recover-after 200000
    // --churn-repair-every 100000 (default start and seed), with the trace
    // positions scaled along with the trace length.
    const double r = stream_scale / kUcbScale;
    webcache::fault::ChurnSpec spec;
    spec.crashes = 5;
    spec.recover_after = static_cast<std::uint64_t>(std::llround(200000.0 * r));
    spec.repair_every = static_cast<std::uint64_t>(std::llround(100000.0 * r));
    spec.start = trace_length / 4;
    cfg.churn_events = webcache::fault::make_schedule(spec, trace_length, cfg.num_proxies,
                                                      cfg.clients_per_cluster);
  }
  return cfg;
}

Prepared setup_fig2a(const Options& o, Tracer& tracer) {
  Prepared p;
  auto cfg = webcache::bench::paper_workload();
  cfg.seed = o.seed;
  cfg.total_requests = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(cfg.total_requests) * o.scale));
  cfg.distinct_objects = static_cast<ObjectNum>(
      std::max(1LL, std::llround(static_cast<double>(cfg.distinct_objects) * o.scale)));
  workload::Trace trace;
  {
    Scope scope(tracer, "workload.generate");
    trace = workload::ProWGen(cfg).generate();
  }
  p.source = workload::make_source(std::move(trace));
  p.sweep.base.num_proxies = 2;
  p.sweep.base.clients_per_cluster = 100;
  p.sweep.client_cache_percent = kClientPercent;
  p.sweep.threads = worker_threads();
  p.sweep.collect_observability = true;
  return p;
}

Prepared setup_stream(const Options& o, Tracer& tracer) {
  Prepared p;
  workload::UcbLikeConfig ucb;
  ucb.scale = kUcbScale * o.scale;
  ucb.seed = o.seed;
  const auto gen = workload::ucb_like_prowgen_config(ucb);
  const std::string path = trace_path(o);
  {
    workload::WctraceWriter writer(path);
    writer.set_distinct_objects(gen.distinct_objects);
    std::vector<Request> batch;
    batch.reserve(kSinkBatch);
    const auto flush = [&] {
      Scope scope(tracer, "workload.write", batch.size());
      for (const Request& r : batch) writer.append(r);
      batch.clear();
    };
    {
      Scope scope(tracer, "workload.generate");
      workload::ProWGen(gen).generate([&](const Request& r) {
        batch.push_back(r);
        if (batch.size() == kSinkBatch) flush();
      });
    }
    flush();
    Scope scope(tracer, "workload.write");
    (void)writer.finalize();
  }
  std::shared_ptr<workload::MmapTraceSource> mmap;
  {
    Scope scope(tracer, "workload.open_verify");
    mmap = std::make_shared<workload::MmapTraceSource>(path);
    if (!mmap->verify_checksum()) throw std::runtime_error(path + ": checksum mismatch");
  }
  p.source = mmap;
  {
    Scope scope(tracer, "directory.ring_table");
    p.object_ids = webcache::directory::build_object_id_table(p.source->distinct_objects());
  }
  const unsigned proxies = o.kind == Kind::kUcbStream ? 2 : 8;
  ObjectNum infinite = 0;
  {
    Scope scope(tracer, "core.infinite_size");
    infinite = core::cluster_infinite_cache_size(*p.source, proxies);
  }
  const auto base =
      stream_base_config(o.kind, infinite, p.source->size(), ucb.scale, p.object_ids);
  const std::vector<sim::Scheme> schemes =
      o.kind == Kind::kUcbStream
          ? std::vector<sim::Scheme>{sim::Scheme::kHierGD, sim::Scheme::kSquirrel}
          : std::vector<sim::Scheme>{sim::Scheme::kHierGD};
  for (const auto scheme : schemes) {
    SimOp op;
    op.label = std::string(sim::to_string(scheme));
    op.config = base;
    op.config.scheme = scheme;
    op.registry = std::make_shared<obs::Registry>();
    op.config.registry = op.registry;
    op.run = tracer.begin_run();
    const double t0 = now_s();
    Scope scope(tracer, "sim.ctor");
    p.sims.push_back(std::make_unique<sim::Simulator>(op.config, *p.source));
    p.ctor_s += now_s() - t0;
    p.ops.push_back(std::move(op));
  }
  return p;
}

void replay_fig2a(Iteration& it, Tracer& tracer) {
  Prepared& p = it.prep;
  const auto& schemes = p.sweep.schemes;
  const auto& percents = p.sweep.cache_percents;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  core::SweepResult result;
  std::string error;
  try {
    tracer.begin_run();
    Scope scope(tracer, "core.run_sweep");
    result = core::run_sweep(*p.source, p.sweep);
  } catch (const std::exception& e) {
    error = e.what();
  }
  it.replay_wall_s = now_s() - t0;
  it.replay_cpu_s = process_cpu_s() - c0;
  for (std::size_t i = 0; i < percents.size(); ++i) {
    const std::string size = "p" + scale_label(percents[i]);
    for (std::size_t k = 0; k <= schemes.size(); ++k) {
      // k == schemes.size() is the NC baseline; an NC column aliases it.
      if (k < schemes.size() && schemes[k] == sim::Scheme::kNC) continue;
      SimOp op;
      const sim::Scheme scheme = k == schemes.size() ? sim::Scheme::kNC : schemes[k];
      op.label = size + "." + std::string(sim::to_string(scheme));
      op.config = p.sweep.base;
      op.config.scheme = scheme;
      op.error = error;
      if (error.empty()) {
        op.registry =
            k == schemes.size() ? result.baseline_registries[i] : result.registries[i][k];
        op.metrics = k == schemes.size() ? result.baseline[i] : result.metrics[i][k];
      }
      it.ops.push_back(std::move(op));
    }
  }
  it.requests = it.ops.size() * p.source->size();
}

void replay_stream(Iteration& it, Tracer& tracer) {
  Prepared& p = it.prep;
  for (std::size_t i = 0; i < p.sims.size(); ++i) {
    SimOp op = p.ops[i];
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      Scope scope(tracer, "sim.run", 1, op.run);
      op.metrics = p.sims[i]->run();
    } catch (const std::exception& e) {
      op.error = e.what();
    }
    op.replay_s = now_s() - t0;
    it.replay_wall_s += op.replay_s;
    it.replay_cpu_s += process_cpu_s() - c0;
    it.requests += p.source->size();
    it.ops.push_back(std::move(op));
  }
  p.sims.clear();
}

Iteration run_iteration(const Options& o, Tracer& tracer) {
  Iteration it;
  const double t0 = now_s();
  tracer.begin_run();
  it.prep = o.kind == Kind::kFig2aSweep ? setup_fig2a(o, tracer) : setup_stream(o, tracer);
  it.setup_s = now_s() - t0;
  if (o.kind == Kind::kFig2aSweep) {
    replay_fig2a(it, tracer);
  } else {
    replay_stream(it, tracer);
  }
  return it;
}

// --- outcome accounting -----------------------------------------------------------

struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> first_digests;  ///< label, hex
};

void check_iteration(const Options& o, const Iteration& it, const DigestBook& book,
                     Accounting& acc, bool print) {
  const bool pinned = o.seed == default_seed(o.kind) && o.scale == 1.0;
  const bool checking_digests = o.record_digests.empty();
  const bool first = acc.first_digests.empty();
  for (const SimOp& op : it.ops) {
    ++acc.attempted;
    std::vector<std::string> problems;
    std::string digest = "-";
    if (!op.error.empty()) {
      problems.push_back("threw: " + op.error);
    } else {
      problems = check_invariants(*op.registry, op.config, it.prep.source->size());
      digest = hex64(export_digest(*op.registry));
      if (checking_digests) {
        const auto want = book.find(o.workload, o.seed, scale_label(o.scale), op.label);
        if (want && *want != digest) {
          problems.push_back("export digest " + digest + " != recorded " + *want);
        } else if (!want && pinned) {
          problems.push_back("no digest recorded for the default seed");
        }
      }
    }
    if (first) acc.first_digests.emplace_back(op.label, digest);
    if (!problems.empty()) {
      ++acc.failed;
      for (const auto& p : problems) std::cout << "# FAILED " << op.label << ": " << p << "\n";
    }
    if (print) {
      std::cout << "# digest " << op.label << " " << digest << "\n";
      if (op.error.empty()) {
        std::cout << "# outcome " << op.label << " hit_ratio=" << op.metrics.hit_ratio()
                  << " mean_latency=" << op.metrics.mean_latency() << "\n";
      }
    }
  }
}

// --- result output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Accounting& acc, const std::vector<Metric>& metrics,
                  std::pair<double, double> steal_at_start) {
  const auto steal_now = steal_and_total_ticks();
  const double ticks = steal_now.second - steal_at_start.second;
  if (ticks > 0) {
    std::cout << "# host steal during the run: "
              << 100.0 * (steal_now.first - steal_at_start.first) / ticks << "% of CPU time\n";
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (acc.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << acc.attempted << ", \"failed\": " << acc.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double rps(const Iteration& it) {
  return it.replay_wall_s > 0 ? static_cast<double>(it.requests) / it.replay_wall_s : 0.0;
}

// --- traced mode: per-layer metrics ------------------------------------------------

/// Sum of a counter family over a set of registries (exact name or suffix).
std::uint64_t sum_counters(const std::vector<const obs::Registry*>& regs,
                           const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto* r : regs) {
    for (const auto& name : r->counter_names()) {
      if (name == suffix ||
          (name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
           name[name.size() - suffix.size() - 1] == '.')) {
        total += r->counter_value(name);
      }
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct TimedRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ctor_s = 0.0;
  std::uint64_t requests = 0;
};

/// A simulation run alone: construct, run, destroy (what sim::run_simulation
/// does), with the construction timed on its own.
TimedRun run_alone(const sim::SimConfig& cfg, const workload::TraceSource& source, Tracer& tracer,
                   const char* span) {
  TimedRun r;
  tracer.begin_run();
  Scope scope(tracer, span);
  const double t0 = now_s();
  auto simulator = std::make_unique<sim::Simulator>(cfg, source);
  r.ctor_s = now_s() - t0;
  const double c0 = process_cpu_s();
  const double t1 = now_s();
  (void)simulator->run();
  r.wall_s = now_s() - t1;
  r.cpu_s = process_cpu_s() - c0;
  r.requests = source.size();
  return r;
}

std::vector<Metric> traced_metrics(const Options& o, const Iteration& untraced,
                                   const Iteration& traced, Tracer& tracer) {
  const Prepared& p = traced.prep;
  const workload::TraceSource& source = *p.source;
  const std::uint64_t n = source.size();
  const bool sweep = o.kind == Kind::kFig2aSweep;

  // Which runs are Hier-GD / Squirrel, from the untraced iteration's exact registries.
  std::vector<const obs::Registry*> all;
  std::vector<const obs::Registry*> hgd;
  std::vector<const obs::Registry*> overlay_runs;
  std::uint64_t hgd_requests = 0;
  std::uint64_t overlay_requests = 0;
  for (const SimOp& op : untraced.ops) {
    if (!op.registry) continue;
    all.push_back(op.registry.get());
    if (op.config.scheme == sim::Scheme::kHierGD) {
      hgd.push_back(op.registry.get());
      hgd_requests += n;
    }
    if (op.config.scheme == sim::Scheme::kHierGD || op.config.scheme == sim::Scheme::kSquirrel) {
      overlay_runs.push_back(op.registry.get());
      overlay_requests += n;
    }
  }

  // Capacities the isolated replays use. fig2a-sweep sweeps 10..100%; its
  // layer replays use the middle size, 50%.
  LayerInputs in;
  in.source = &source;
  ObjectNum sweep_infinite = 0;
  if (sweep) {
    in.schemes = p.sweep.schemes;
    in.proxies = p.sweep.base.num_proxies;
    {
      Scope scope(tracer, "core.infinite_size");
      sweep_infinite = core::cluster_infinite_cache_size(source, in.proxies);
    }
    in.proxy_capacity = percent_of(50.0, sweep_infinite);
    in.client_capacity = percent_of(p.sweep.client_cache_percent, sweep_infinite);
    {
      Scope scope(tracer, "directory.ring_table");
      in.object_ids = webcache::directory::build_object_id_table(source.distinct_objects());
    }
    in.clients = p.sweep.base.clients_per_cluster;
  } else {
    const sim::SimConfig& base = p.ops.front().config;
    for (const SimOp& op : p.ops) in.schemes.push_back(op.config.scheme);
    in.proxies = base.num_proxies;
    in.clients = base.clients_per_cluster;
    in.proxy_capacity = base.proxy_capacity;
    in.client_capacity = base.client_cache_capacity;
    in.browser_capacity = base.browser_cache_capacity;
    in.object_ids = p.object_ids;
    in.churn = base.churn_events;
  }
  const auto lookups = static_cast<double>(sum_counters(hgd, "dir.lookups"));
  in.dir_adds_per_lookup = ratio(static_cast<double>(sum_counters(hgd, "dir.adds")), lookups);
  in.dir_removes_per_lookup = ratio(static_cast<double>(sum_counters(hgd, "dir.removes")), lookups);
  const auto p2p_fetches = static_cast<double>(sum_counters(hgd, "net.directory_true_positives") +
                                               sum_counters(hgd, "net.directory_false_positives"));
  in.p2p_stores_per_request = ratio(
      static_cast<double>(sum_counters(hgd, "client_cache.insertions")), static_cast<double>(hgd_requests));
  in.p2p_fetches_per_request = ratio(p2p_fetches, static_cast<double>(hgd_requests));

  const auto stats = run_isolated_layers(in, tracer);

  // Replay seconds per scheme, each simulation alone. The stream workloads
  // run theirs one after another, so the untraced iteration timed each
  // alone; run_sweep runs its jobs concurrently, so each (size, scheme) job
  // runs again alone here.
  std::map<std::string, std::pair<std::uint64_t, double>> per_scheme;  // requests, seconds
  std::vector<double> job_s;
  double job_total_s = 0.0;
  double ctor_s = p.ctor_s;
  if (sweep) {
    ctor_s = 0.0;
    for (const double pct : p.sweep.cache_percents) {
      for (std::size_t k = 0; k <= p.sweep.schemes.size(); ++k) {
        if (k < p.sweep.schemes.size() && p.sweep.schemes[k] == sim::Scheme::kNC) continue;
        sim::SimConfig cfg = p.sweep.base;
        cfg.scheme = k == p.sweep.schemes.size() ? sim::Scheme::kNC : p.sweep.schemes[k];
        cfg.proxy_capacity = percent_of(pct, sweep_infinite);
        cfg.client_cache_capacity = in.client_capacity;
        cfg.trace_stats = stats;
        cfg.object_ids = in.object_ids;
        const TimedRun r = run_alone(cfg, source, tracer, "core.job");
        auto& slot = per_scheme[std::string(sim::to_string(cfg.scheme))];
        slot.first += r.requests;
        slot.second += r.wall_s;
        job_s.push_back(r.ctor_s + r.wall_s);
        job_total_s += r.ctor_s + r.wall_s;
        ctor_s += r.ctor_s;
      }
    }
  } else {
    for (const SimOp& op : untraced.ops) {
      auto& slot = per_scheme[std::string(sim::to_string(op.config.scheme))];
      slot.first += n;
      slot.second += op.replay_s;
    }
  }

  // Shard trio on the sharded workload's configuration.
  double shard_speedup = 0.0;
  double shard_cpu_util = 0.0;
  double sharded_overhead = 0.0;
  if (o.kind == Kind::kShardedChurn) {
    sim::SimConfig cfg = p.ops.front().config;
    cfg.registry = nullptr;
    cfg.sim_shards = 0;
    const TimedRun seq = run_alone(cfg, source, tracer, "sim.shards0");
    cfg.sim_shards = 1;
    const TimedRun one = run_alone(cfg, source, tracer, "sim.shards1");
    cfg.sim_shards = shard_count();
    const TimedRun many = run_alone(cfg, source, tracer, "sim.shardsN");
    const double effective_shards = std::min<double>(cfg.sim_shards, cfg.num_proxies);
    shard_speedup = ratio(one.wall_s, many.wall_s);
    shard_cpu_util = ratio(many.cpu_s, effective_shards * many.wall_s);
    sharded_overhead = ratio(one.wall_s, seq.wall_s);
  }

  const auto totals = tracer.totals();
  const auto span_s = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.duration_s;
  };
  const auto self_s = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto ns_per_call = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.calls == 0
               ? 0.0
               : it->second.duration_s * 1e9 / static_cast<double>(it->second.calls);
  };

  // Registry op counts x isolated ns/op, summed over the workload's runs.
  double attributed_ns = 0.0;
  for (const SimOp& op : untraced.ops) {
    if (!op.registry) continue;
    const obs::Registry& r = *op.registry;
    const auto c = [&r](const char* name) { return static_cast<double>(r.counter_value(name)); };
    const std::vector<const obs::Registry*> one_reg{&r};
    const double proxy_requests = c("sim.requests") - c("sim.hits_browser");
    switch (op.config.scheme) {
      case sim::Scheme::kNC:
      case sim::Scheme::kSC:
        attributed_ns += ns_per_call("cache.lfu_da.op") * 2 * proxy_requests;
        break;
      case sim::Scheme::kFC:
        attributed_ns += ns_per_call("cache.cost_benefit.op") * 3 * proxy_requests;
        break;
      case sim::Scheme::kNC_EC:
      case sim::Scheme::kSC_EC:
        attributed_ns += ns_per_call("sim.tiered.op") * 2 * proxy_requests;
        break;
      case sim::Scheme::kFC_EC:
        attributed_ns += (ns_per_call("cache.cost_benefit.op") * 3 +
                          ns_per_call("cache.lru.op") * 2) * proxy_requests;
        break;
      case sim::Scheme::kHierGD:
        attributed_ns +=
            ns_per_call("cache.greedy_dual.op") * 2 * proxy_requests +
            ns_per_call("directory.op") *
                static_cast<double>(sum_counters(one_reg, "dir.lookups") +
                                    sum_counters(one_reg, "dir.adds") +
                                    sum_counters(one_reg, "dir.removes")) +
            ns_per_call("p2p.store") *
                static_cast<double>(sum_counters(one_reg, "client_cache.insertions")) +
            ns_per_call("p2p.fetch") *
                (c("net.directory_true_positives") + c("net.directory_false_positives"));
        break;
      case sim::Scheme::kSquirrel:
        attributed_ns += ns_per_call("p2p.fetch") * c("sim.requests") +
                         ns_per_call("p2p.store") * c("sim.server_fetches");
        break;
    }
    if (op.config.browser_cache_capacity > 0) {
      attributed_ns += ns_per_call("cache.lru.op") * 2 * c("sim.requests");
    }
    attributed_ns += ns_per_call("workload.decode") * c("sim.requests");
  }

  const double requests_all = static_cast<double>(untraced.requests);
  const auto scheme_rps = [&](sim::Scheme s) {
    const auto it = per_scheme.find(std::string(sim::to_string(s)));
    return it == per_scheme.end() ? 0.0
                                  : ratio(static_cast<double>(it->second.first), it->second.second);
  };

  std::vector<Metric> m;
  m.push_back({"workload.generate_s", self_s("workload.generate"), "s"});
  m.push_back({"workload.write_s", span_s("workload.write"), "s"});
  m.push_back({"workload.open_verify_s", span_s("workload.open_verify"), "s"});
  m.push_back({"workload.decode_ns_per_req", ns_per_call("workload.decode"), "ns/req"});
  m.push_back({"workload.analyze_s", span_s("workload.analyze"), "s"});
  m.push_back({"core.infinite_size_s", span_s("core.infinite_size"), "s"});
  m.push_back({"core.job_s.p50", median(job_s), "s"});
  m.push_back({"core.job_s.max",
               job_s.empty() ? 0.0 : *std::max_element(job_s.begin(), job_s.end()), "s"});
  m.push_back({"core.sweep_efficiency",
               ratio(job_total_s, static_cast<double>(p.sweep.threads) * untraced.replay_wall_s),
               "ratio"});
  m.push_back({"directory.ring_table_s", span_s("directory.ring_table"), "s"});
  m.push_back({"directory.ns_per_op", ns_per_call("directory.op"), "ns"});
  m.push_back({"directory.positive_frac",
               ratio(static_cast<double>(sum_counters(hgd, "dir.positives")), lookups), "ratio"});
  m.push_back({"directory.false_positive_frac",
               ratio(static_cast<double>(sum_counters(hgd, "net.directory_false_positives")),
                     lookups),
               "ratio"});
  m.push_back({"cache.lfu_da.ns_per_op", ns_per_call("cache.lfu_da.op"), "ns"});
  m.push_back({"cache.cost_benefit.ns_per_op", ns_per_call("cache.cost_benefit.op"), "ns"});
  m.push_back({"cache.greedy_dual.ns_per_op", ns_per_call("cache.greedy_dual.op"), "ns"});
  m.push_back({"cache.lru.ns_per_op", ns_per_call("cache.lru.op"), "ns"});
  m.push_back({"sim.tiered.ns_per_op", ns_per_call("sim.tiered.op"), "ns"});
  m.push_back({"cache.evictions_per_req",
               ratio(static_cast<double>(sum_counters(all, "cache.evictions") +
                                         sum_counters(all, "client_cache.evictions")),
                     requests_all),
               "count/req"});
  m.push_back({"pastry.route_ns", ns_per_call("pastry.route"), "ns"});
  m.push_back({"pastry.build_s", span_s("pastry.build"), "s"});
  m.push_back({"pastry.hops_mean",
               ratio(static_cast<double>(sum_counters(overlay_runs, "pastry.total_hops")),
                     static_cast<double>(sum_counters(overlay_runs, "pastry.messages_routed"))),
               "hops"});
  m.push_back({"pastry.routes_per_req",
               ratio(static_cast<double>(sum_counters(overlay_runs, "pastry.messages_routed")),
                     static_cast<double>(overlay_requests)),
               "count/req"});
  m.push_back({"p2p.store_ns", ns_per_call("p2p.store"), "ns"});
  m.push_back({"p2p.fetch_ns", ns_per_call("p2p.fetch"), "ns"});
  m.push_back({"p2p.destage_hit_frac",
               ratio(static_cast<double>(sum_counters(hgd, "sim.hits_local_p2p") +
                                         sum_counters(hgd, "sim.hits_remote_p2p")),
                     static_cast<double>(sum_counters(hgd, "client_cache.insertions"))),
               "ratio"});
  m.push_back({"p2p.churn_ns", ns_per_call("p2p.churn"), "ns"});
  std::uint64_t transfers = 0;
  for (const auto* r : all) {
    if (const auto* s = r->find_stat("sim.p2p_hops")) transfers += s->count();
  }
  m.push_back({"fault.crashes", static_cast<double>(sum_counters(all, "fault.crashes")), "count"});
  m.push_back(
      {"fault.objects_lost", static_cast<double>(sum_counters(all, "fault.objects_lost")), "count"});
  m.push_back({"fault.loss_frac",
               ratio(static_cast<double>(sum_counters(all, "net.p2p_messages_lost")),
                     static_cast<double>(transfers)),
               "ratio"});
  std::vector<sim::Scheme> every(sim::kAllSchemes.begin(), sim::kAllSchemes.end());
  every.push_back(sim::Scheme::kSquirrel);
  for (const auto scheme : every) {
    m.push_back({"sim.rps." + std::string(sim::to_string(scheme)), scheme_rps(scheme), "req/s"});
  }
  m.push_back({"sim.ctor_s", ctor_s, "s"});
  m.push_back({"sim.unattributed_frac", 1.0 - ratio(attributed_ns * 1e-9, untraced.replay_cpu_s),
               "ratio"});
  m.push_back({"sim.shard_speedup", shard_speedup, "ratio"});
  m.push_back({"sim.shard_cpu_util", shard_cpu_util, "ratio"});
  m.push_back({"sim.sharded_overhead", sharded_overhead, "ratio"});
  m.push_back({"trace.overhead_frac", 1.0 - ratio(rps(traced), rps(untraced)), "ratio"});
  return m;
}

void write_spans(const Options& o, const Tracer& tracer) {
  const std::string path =
      o.work_dir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl";
  std::ofstream out(path);
  tracer.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cerr << "# spans written to " << path << "\n";
  std::cerr << "# span totals: name spans calls duration_s self_s\n";
  for (const auto& [name, t] : tracer.totals()) {
    std::cerr << "#   " << name << " " << t.spans << " " << t.calls << " " << t.duration_s << " "
              << t.self_s << "\n";
  }
}

int run(const Options& o) {
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench_driver: refusing to run with " << name
                << " set; it changes what the benchmark measures. Unset it and retry.\n";
      return 2;
    }
  }
  std::cout << "# env nproc=" << hardware_threads() << " compiler=\"GCC " << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " WEBCACHE_OBS_TRACE=" << (PERFBENCH_OBS_TRACE ? "ON" : "OFF")
            << " WEBCACHE_AUDIT=" << (PERFBENCH_AUDIT ? "ON" : "OFF") << "\n"
            << "# workload " << o.workload << " seed=" << o.seed << " scale=" << scale_label(o.scale)
            << " workers=" << worker_threads() << " shards=" << shard_count() << "\n"
            << "# note: simulated outcomes are checked for consistency and against recorded\n"
            << "# digests only; the model is numerically unvalidated (the repository holds no\n"
            << "# numeric paper results), so no accuracy error is reported.\n";
  const RemoveOnExit cleanup{trace_path(o)};
  const auto steal_at_start = steal_and_total_ticks();
  const DigestBook book = DigestBook::load(o.digests);
  Accounting acc;
  Tracer off(false);

  if (!o.trace) {
    std::vector<double> setup;
    std::vector<double> replay_rps;
    std::vector<double> cpu_per_mreq;
    const double start = now_s();
    do {
      Iteration it = run_iteration(o, off);
      check_iteration(o, it, book, acc, setup.empty());
      setup.push_back(it.setup_s);
      replay_rps.push_back(rps(it));
      cpu_per_mreq.push_back(ratio(it.replay_cpu_s, static_cast<double>(it.requests) * 1e-6));
      std::cout << "# iteration " << setup.size() << " setup_s=" << it.setup_s
                << " replay_s=" << it.replay_wall_s << " replay_rps=" << rps(it) << "\n";
    } while (now_s() - start < o.seconds);
    if (!o.record_digests.empty()) {
      DigestBook out = DigestBook::load(o.record_digests);
      out.replace(o.workload, o.seed, scale_label(o.scale), acc.first_digests);
      out.save(o.record_digests);
      std::cout << "# recorded " << acc.first_digests.size() << " digests in "
                << o.record_digests << "\n";
    }
    print_result(acc, {{"replay_rps", median(replay_rps), "req/s"},
                       {"setup_s", median(setup), "s"},
                       {"cpu_s_per_mreq", median(cpu_per_mreq), "s/Mreq"},
                       {"peak_rss_mb", peak_rss_mib(), "MiB"}},
                 steal_at_start);
    return 0;
  }

  // Traced mode: a warm-up iteration, then one untraced and one traced
  // iteration (for the tracing overhead), then, on the traced iteration's
  // inputs, isolated replays of the workload's layers and runs alone.
  Tracer on(true);
  check_iteration(o, run_iteration(o, off), book, acc, false);
  Iteration untraced = run_iteration(o, off);
  check_iteration(o, untraced, book, acc, false);
  untraced.prep = {};  // the traced iteration rewrites the trace file it maps
  Iteration traced = run_iteration(o, on);
  check_iteration(o, traced, book, acc, true);
  const auto metrics = traced_metrics(o, untraced, traced, on);
  write_spans(o, on);
  print_result(acc, metrics, steal_at_start);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}

// Shared plumbing for the figure, ablation and extension benches.
//
// `figures` prints the paper's Figures 2-5: latency gain (%) per proxy-cache
// size, one column per scheme/parameter value, in a gnuplot-ready table.
// Absolute numbers depend on the synthetic substrate; the *shape* (ordering,
// crossovers, trends) is what reproduces the paper — EXPERIMENTS.md records
// the comparison. Every bench runs the paper's sequential engine.
//
// Environment knobs:
//   WEBCACHE_BENCH_SCALE  (default 1.0) scales the request volume, e.g.
//                         WEBCACHE_BENCH_SCALE=0.1 ./figures fig2a_cache_size;
//                         > 1 oversamples. The paper workload needs at least
//                         15,000 requests, so scale 0.015: below that
//                         ProWGen rejects it and the bench exits 2. A value
//                         that is not finite and positive, or whose request
//                         count does not fit 64 bits, warns and falls back
//                         to 1.0.
//   WEBCACHE_THREADS      worker threads for run_sweep (default 0 = one per
//                         core). Results are bitwise identical regardless.
//                         Unset or empty means 0; a value that is not a
//                         plain integer in [0, 1024] stops the bench with
//                         exit code 2.
// A compiled wctrace/1 file replays through `webcache_cli sweep --trace`.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_source.hpp"

namespace webcache::bench {

/// Request count of the paper's workload at scale 1.
inline constexpr double kPaperRequests = 1'000'000.0;

/// WEBCACHE_BENCH_SCALE, or 1.0 when unset or invalid. The bound rejects
/// inf and any scale whose request count would not fit std::uint64_t
/// (2^64), where the conversion in paper_workload() is undefined.
inline double bench_scale() {
  if (const char* env = std::getenv("WEBCACHE_BENCH_SCALE")) {
    char* end = nullptr;
    const double s = std::strtod(env, &end);
    if (end != env && *end == '\0' && s > 0.0 && kPaperRequests * s < 0x1p64) return s;
    std::cerr << "ignoring invalid WEBCACHE_BENCH_SCALE=" << env << "\n";
  }
  return 1.0;
}

/// Prints "error: <message>" and stops the bench with exit code 2.
[[noreturn]] inline void exit_with_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

/// Runs one of core's strict integer parses or a workload generation; the
/// std::invalid_argument it throws for a value it rejects stops the bench
/// with exit code 2.
template <typename Parse>
auto or_exit(Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    exit_with_error(e.what());
  }
}

/// Worker-thread count for run_sweep: WEBCACHE_THREADS, or 0 (one per core).
inline unsigned bench_threads() {
  return static_cast<unsigned>(
      or_exit([] { return core::integer_from_env("WEBCACHE_THREADS", 1024); }));
}

/// The paper's default synthetic workload (Section 5.1): one million
/// requests over 10,000 distinct objects, 50% one-timers, alpha = 0.7.
inline workload::ProWGenConfig paper_workload() {
  workload::ProWGenConfig cfg;
  cfg.total_requests = static_cast<std::uint64_t>(kPaperRequests * bench_scale());
  cfg.distinct_objects = 10'000;
  cfg.one_timer_fraction = 0.5;
  cfg.zipf_alpha = 0.7;
  cfg.lru_stack_fraction = 0.2;
  cfg.clients = 100;
  cfg.seed = 2003;  // publication year, for flavour
  return cfg;
}

/// The ProWGen workload `cfg`, generated in memory. A workload ProWGen
/// rejects, such as the paper's below WEBCACHE_BENCH_SCALE=0.015, stops the
/// bench with exit code 2.
inline std::shared_ptr<const workload::TraceSource> bench_source(
    const workload::ProWGenConfig& cfg) {
  return workload::make_source(or_exit([&cfg] { return workload::ProWGen(cfg).generate(); }));
}

/// Observability plumbing shared by the sweep benches: parses
/// `--metrics-out FILE` and `--snapshot-interval N` from argv, switches the
/// sweep into collect_observability mode, and writes the
/// "webcache-metrics/1" JSON export after the run. Benches that run several
/// sweeps pass a distinct label per sweep; the label is inserted before the
/// file extension ("out.json" + label "a05" -> "out.a05.json"). Any other
/// argument, a flag without its value, a malformed interval or an export
/// that cannot be written stops the bench with an "error: ..." line and
/// exit code 2.
class ObsOptions {
 public:
  ObsOptions(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg != "--metrics-out" && arg != "--snapshot-interval") {
        exit_with_error("unknown bench argument '" + arg +
                        "'; the flags are --metrics-out FILE and --snapshot-interval N");
      }
      if (i + 1 == argc) exit_with_error(arg + " needs a value");
      const char* value = argv[++i];
      if (arg == "--metrics-out") {
        path_ = value;
      } else {
        snapshot_interval_ = or_exit(
            [value] { return core::parse_integer("--snapshot-interval", value, kMaxInterval); });
      }
    }
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Turns on registry collection for the sweep when an output was requested.
  void apply(core::SweepConfig& config) const {
    config.collect_observability = enabled();
    config.base.snapshot_interval = snapshot_interval_;
  }

  /// This configuration with `tag` in every export's file name, ahead of
  /// any label ("out.json" -> "out.<tag>.json"): a process that exports
  /// several figures tags each with its name, so no two share a path.
  [[nodiscard]] ObsOptions tagged(const std::string& tag) const {
    ObsOptions copy = *this;
    if (enabled()) copy.path_ = with_label(path_, tag);
    return copy;
  }

  /// Writes the sweep's metrics export. Single-sweep benches pass an empty
  /// label (the file goes exactly where --metrics-out points, which the
  /// metrics-gating test relies on); multi-sweep benches pass one label per
  /// sweep. No-op when no output was requested.
  void write(const core::SweepResult& result, const std::string& bench_name,
             const std::string& label = {}) const {
    if (!enabled()) return;
    const std::string path = label.empty() ? path_ : with_label(path_, label);
    std::ofstream out(path);
    if (!out) exit_with_error("cannot write " + path);
    const std::string name = label.empty() ? bench_name : bench_name + " " + label;
    core::write_metrics_json(out, result, name);
    std::cout << "# [metrics written to " << path << "]\n";
  }

 private:
  static constexpr std::uint64_t kMaxInterval = std::numeric_limits<std::uint64_t>::max();

  /// `path` with `label` inserted before its file extension, or appended
  /// when it has none.
  static std::string with_label(const std::string& path, const std::string& label) {
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
      return path.substr(0, dot) + "." + label + path.substr(dot);
    }
    return path + "." + label;
  }

  std::string path_;
  std::uint64_t snapshot_interval_ = 0;
};

/// Timer helper: prints elapsed seconds after each bench section.
class SectionTimer {
 public:
  explicit SectionTimer(std::string label)
      : label_(std::move(label)), start_(std::chrono::steady_clock::now()) {}
  ~SectionTimer() {
    const auto dt = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    std::cout << "# [" << label_ << " took " << dt.count() << " s]\n\n";
  }

 private:
  std::string label_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace webcache::bench

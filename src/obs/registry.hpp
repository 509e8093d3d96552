// Observability core: a lightweight metrics registry.
//
// Every component that accounts anything (the simulator, the tiered cache,
// the P2P client cache, the Pastry overlay, the lookup directories, the
// replacement policies) registers named instruments here and increments them
// directly on its hot path. The legacy result structs (`sim::Metrics`,
// `net::MessageStats`, `pastry::OverlayStats`) are *views* built from these
// instruments at read time, not parallel bookkeeping.
//
// Four instrument kinds:
//   * Counter   — monotonic uint64 (request outcomes, protocol messages);
//   * Gauge     — double accumulator/level (total latency, waste);
//   * RunningStat (from common/stats.hpp) — mean/min/max streams (hop counts);
//   * Histogram (from common/stats.hpp)   — fixed-bucket distributions
//     (request latency, Pastry hops).
//
// Handles returned by the registration calls are stable for the registry's
// lifetime (deque storage), so the per-event cost is one pointer-indirect
// increment — the same order as the struct-member increments they replace.
//
// Two *optional* collection layers ride on top, both off by default:
//   * interval snapshots — the producer calls snapshot(at) on its own clock
//     (the simulator's replay loop: every N requests) and the registry
//     captures all counter and gauge values, yielding hit-ratio / latency /
//     false-positive curves over simulated time;
//   * a ring-buffer event tracer — fixed-capacity buffer of request-level
//     records (time, where served, latency, wasted latency).
// When not enabled at runtime, the tracer costs one predictable branch per
// request; snapshots touch the registry only when one is due.
//
// Exports (schema "webcache-metrics/1", documented in README.md):
//   write_json       — full registry as one JSON document, the snapshot
//                      rows included (write_json_body: its body only);
//   write_csv        — flat kind,name,value CSV of all instruments;
//   write_trace_csv  — the event tracer's records.
// All numeric formatting is locale-independent and shortest-round-trip, so
// exports are byte-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"

namespace webcache::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// For view-struct resets (e.g. Overlay::reset_stats); the instrument
  /// itself is monotonic between resets.
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Double-valued level or accumulator.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// One request-level trace record. `code` is a small enum the producer
/// defines (the simulator stores net::ServedFrom); the schema documentation
/// records the mapping.
struct TraceEvent {
  std::uint64_t time = 0;  ///< trace position (request index)
  std::uint32_t code = 0;  ///< producer-defined discriminator
  double value = 0.0;      ///< primary measurement (request latency)
  double aux = 0.0;        ///< secondary measurement (wasted latency)
};

/// One interval snapshot: all counter/gauge values at producer time `at`.
struct Snapshot {
  std::uint64_t at = 0;
  std::vector<std::uint64_t> counters;  ///< registration order
  std::vector<double> gauges;           ///< registration order
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- instrument registration (find-or-create; stable references) ---------
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  RunningStat& stat(std::string_view name);
  /// Bounds/bucket count are fixed by the first registration of `name`;
  /// later calls return the existing histogram.
  Histogram& histogram(std::string_view name, double lo, double hi, std::size_t buckets);

  // --- read access ---------------------------------------------------------
  /// Value of a counter, 0 when it was never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Value of a gauge, 0.0 when it was never registered.
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] const RunningStat* find_stat(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  [[nodiscard]] std::size_t counter_count() const { return counters_.names.size(); }

  /// Counter/gauge names in registration order (the snapshot column order).
  [[nodiscard]] const std::vector<std::string>& counter_names() const {
    return counters_.names;
  }
  [[nodiscard]] const std::vector<std::string>& gauge_names() const { return gauges_.names; }
  /// Stat/histogram names in registration order.
  [[nodiscard]] const std::vector<std::string>& stat_names() const { return stats_.names; }
  [[nodiscard]] const std::vector<std::string>& histogram_names() const {
    return histograms_.names;
  }

  /// Adds every instrument of `other` into the same-named one here, creating
  /// it on first sight in `other`'s registration order: counters and gauges
  /// add, stats and histograms pool. The sharded engine folds its
  /// per-cluster registries this way; instrument names must not collide
  /// across the registries merged unless summing them is intended.
  void merge(const Registry& other);

  // --- interval snapshots --------------------------------------------------
  /// The period the producer snapshots at, exported as the document's
  /// "interval" (0 = off). The registry keeps no clock of its own.
  void set_snapshot_interval(std::uint64_t every_n) { snapshot_interval_ = every_n; }
  [[nodiscard]] std::uint64_t snapshot_interval() const { return snapshot_interval_; }
  /// Captures every counter and gauge value now, stamped with `at`.
  void snapshot(std::uint64_t at);
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  // --- ring-buffer event tracer --------------------------------------------
  [[nodiscard]] bool tracing_enabled() const { return trace_capacity_ != 0; }
  /// Enables the tracer with a fixed ring capacity; once full, the oldest
  /// events are overwritten (the tail of the run survives).
  void enable_tracing(std::size_t capacity);
  void record(std::uint64_t time, std::uint32_t code, double value, double aux) {
    if (trace_capacity_ == 0) return;
    if (trace_ring_.size() < trace_capacity_) {
      trace_ring_.push_back({time, code, value, aux});
    } else {
      trace_ring_[trace_next_ % trace_capacity_] = {time, code, value, aux};
    }
    ++trace_next_;
  }

  /// Traced events in chronological order (unwinds the ring).
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;
  /// Events dropped because the ring was full (overwritten oldest records).
  [[nodiscard]] std::uint64_t trace_dropped() const;

  // --- exporters (schema "webcache-metrics/1") -----------------------------
  /// Full JSON document: {"schema", "name", <body>}.
  void write_json(std::ostream& out, std::string_view name) const;
  /// The body object only — {"counters": ..., ..., "snapshots": ...} — for
  /// embedding into composite documents (core::write_metrics_json).
  void write_json_body(std::ostream& out, int indent = 0) const;
  /// Flat CSV: kind,name,value rows for every instrument.
  void write_csv(std::ostream& out) const;
  /// Trace events: "seq,time,code,value,aux", chronological.
  void write_trace_csv(std::ostream& out) const;

 private:
  template <typename T>
  struct Table {
    std::deque<T> store;
    std::vector<std::string> names;
    std::unordered_map<std::string, std::size_t> index;

    T& find_or_create(std::string_view name, auto make) {
      if (const auto it = index.find(std::string(name)); it != index.end()) {
        return store[it->second];
      }
      names.emplace_back(name);
      index.emplace(names.back(), store.size());
      store.push_back(make());
      return store.back();
    }
    const T* find(std::string_view name) const {
      const auto it = index.find(std::string(name));
      return it == index.end() ? nullptr : &store[it->second];
    }
  };

  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<RunningStat> stats_;
  Table<Histogram> histograms_;

  std::uint64_t snapshot_interval_ = 0;
  std::vector<Snapshot> snapshots_;

  std::size_t trace_capacity_ = 0;
  std::uint64_t trace_next_ = 0;  ///< total events recorded (ring write cursor)
  std::vector<TraceEvent> trace_ring_;
};

/// Returns `*registry` when non-null; otherwise lazily creates a private
/// registry in `owned` and returns that. Components accept an optional
/// external registry and fall back to a private one, so standalone
/// construction (tests, examples) needs no wiring while shared construction
/// (the simulator threading one registry through a whole cluster) aggregates
/// everything in one place.
Registry& ensure_registry(Registry* registry, std::unique_ptr<Registry>& owned);

/// Shortest-round-trip, locale-independent formatting for doubles — the
/// exporters use this everywhere so exported documents are byte-identical
/// across runs, machines, and thread counts.
[[nodiscard]] std::string format_double(double value);

/// Schema identifier stamped into every JSON export.
inline constexpr std::string_view kSchemaVersion = "webcache-metrics/1";

}  // namespace webcache::obs

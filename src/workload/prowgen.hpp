// ProWGen synthetic Web-proxy workload generator, reimplemented after
// Busari & Williamson, "On the sensitivity of Web proxy cache performance to
// workload characteristics" (INFOCOM 2001) — the generator the paper drives
// all synthetic experiments with.
//
// Modelled characteristics and their knobs:
//   * one-time referencing  — fraction of distinct objects requested exactly
//     once (default 50%, the paper's default);
//   * object popularity     — Zipf-like with slope alpha over the remaining
//     objects (default 0.7; the paper sweeps {0.5, 0.7, 1.0});
//   * distinct objects      — object universe size (default 10,000);
//   * temporal locality     — finite LRU-stack model: the next request is
//     drawn either from the stack of recently referenced objects or from the
//     pool of not-recently-referenced ones, in proportion to their remaining
//     reference mass (amplified by `temporal_amplifier`); a larger stack
//     makes more objects eligible for temporally-clustered re-reference
//     (default stack = 20% of multi-referenced objects; the paper sweeps
//     {5%, 20%, 60%}).
//
// Every object has unit size, as in the paper's experiments (its assumption
// 1); ProWGen's file-size model is not reproduced.
//
// Reference counts are assigned exactly (the stream consumes precomputed
// per-object counts), so the delivered popularity distribution matches the
// configured one by construction, not just in expectation.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "workload/trace.hpp"

namespace webcache::workload {

struct ProWGenConfig {
  std::uint64_t total_requests = 1'000'000;
  ObjectNum distinct_objects = 10'000;
  /// Fraction of distinct objects referenced exactly once.
  double one_timer_fraction = 0.5;
  /// Zipf slope for the popularity of multi-referenced objects.
  double zipf_alpha = 0.7;
  /// LRU stack size as a fraction of the multi-referenced object count.
  double lru_stack_fraction = 0.2;
  /// How strongly the stack's reference mass is favoured over the pool's;
  /// 1.0 = no temporal clustering beyond natural popularity, larger values
  /// concentrate re-references while objects sit in the stack.
  double temporal_amplifier = 4.0;
  /// Fraction of stack draws that re-reference an entry of the recent-
  /// reference window (recency-weighted) instead of sampling the stack by
  /// remaining mass. This is what makes stack draws genuinely *temporal*
  /// rather than a restatement of popularity.
  double recency_bias = 0.25;
  /// Number of clients the requests are attributed to (round-robin client
  /// ids randomized per request).
  ClientNum clients = 100;
  std::uint64_t seed = 42;
};

class ProWGen {
 public:
  explicit ProWGen(ProWGenConfig config);

  /// Generates the full trace. Deterministic in (config, seed).
  [[nodiscard]] Trace generate() const;

  /// Streaming generation: hands each request to `sink` in stream order
  /// instead of building a vector, so `trace compile` can write a
  /// billion-request trace straight to disk in bounded memory (the working
  /// set stays O(distinct_objects) for the popularity/stack bookkeeping).
  /// Identical request sequence to generate() for the same config.
  void generate(const RequestSink& sink) const;

  [[nodiscard]] const ProWGenConfig& config() const { return config_; }

 private:
  ProWGenConfig config_;
};

}  // namespace webcache::workload

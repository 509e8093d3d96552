// Counting Bloom filter (Fan et al., "Summary Cache", ToN 2000), the one
// Bloom filter in the simulator. It backs three structures:
//
//  * the proxy's Bloom lookup directory (Section 4.2 of the paper), which
//    churns constantly: every destaged object adds an entry and every
//    client-cache eviction removes one. A plain Bloom filter cannot delete,
//    so 4-bit counters are used exactly as Summary Cache does; they overflow
//    with probability ~1.37e-15 per counter, and saturate, so an overflow
//    degrades to a permanent false positive rather than a false negative;
//  * TinyLFU's count-min frequency sketch (estimate(), halve());
//  * TinyLFU's doorkeeper, which only inserts and clears: without erase() a
//    counter is nonzero exactly where a plain filter's bit would be set, so
//    may_contain() answers as a bit array would.
//
// Probes double-hash over the key's two 64-bit limbs (Kirsch-Mitzenmacher),
// so an already uniform key needs no re-hashing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/uint128.hpp"

namespace webcache::bloom {

/// Bloom filter with 4-bit saturating counters supporting erase().
class CountingBloomFilter {
 public:
  /// Sizes the filter for `expected_items` at `target_fpr` false-positive
  /// probability using the standard optima m = -n ln p / (ln 2)^2 counters
  /// and k = (m/n) ln 2 probes. Throws std::invalid_argument unless
  /// 0 < target_fpr < 1.
  CountingBloomFilter(std::size_t expected_items, double target_fpr);

  /// Explicit geometry: `counters` cells and `hashes` probes per key.
  CountingBloomFilter(std::size_t counters, unsigned hashes);

  void insert(const Uint128& key);

  /// Decrements the key's counters. Erasing a key that was never inserted
  /// corrupts the filter (as with any counting bloom); callers guard this.
  void erase(const Uint128& key);

  [[nodiscard]] bool may_contain(const Uint128& key) const;

  /// Count-min style frequency estimate: the minimum of the key's counters.
  /// Never underestimates an actual insert/erase balance (modulo saturation),
  /// which is exactly the bias TinyLFU admission wants.
  [[nodiscard]] std::uint8_t estimate(const Uint128& key) const;

  /// Halves every counter (the TinyLFU "reset" aging step). Saturated cells
  /// decay like any other, so a once-hot key stops looking permanently hot.
  void halve();

  void clear();

  [[nodiscard]] std::size_t counter_count() const { return counters_; }
  [[nodiscard]] unsigned hash_count() const { return hashes_; }
  [[nodiscard]] std::size_t memory_bytes() const { return cells_.size() * sizeof(std::uint8_t); }
  [[nodiscard]] std::uint64_t saturation_events() const { return saturations_; }

  /// Predicted false-positive probability at current load.
  [[nodiscard]] double estimated_fpr() const;

 private:
  static constexpr std::uint8_t kMaxCount = 15;  // 4-bit saturating

  [[nodiscard]] std::size_t probe(const Uint128& key, unsigned i) const;

  std::size_t counters_;
  unsigned hashes_;
  std::uint64_t saturations_ = 0;
  std::vector<std::uint8_t> cells_;  // one byte per 4-bit counter for simplicity of access
};

}  // namespace webcache::bloom

// Per-object sets of proxy clusters.
//
// Cooperation needs one question answered fast: which other cluster holds
// object o? A ClusterSets keeps, for every object of the trace universe, one
// bit per cluster in ceil(P/64) words laid out contiguously, so a lookup is
// one indexed row read plus a ring-ordered bit scan at any proxy count. The
// sequential engine uses it as the live residency index; the sharded engine
// uses the same type for its epoch-start digests.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace webcache::sim {

class ClusterSets {
 public:
  ClusterSets() = default;
  ClusterSets(unsigned clusters, ObjectNum universe)
      : words_((clusters + 63) / 64), bits_(std::size_t{universe} * words_, 0) {}

  /// Adds `cluster` to the object's set (growing past the universe if a
  /// trace names an object beyond it).
  void set(ObjectNum object, unsigned cluster) {
    assert(words_ > 0 && "ClusterSets::set on a set sized for no clusters");
    const std::size_t at = row(object) + (cluster >> 6);
    if (at >= bits_.size()) bits_.resize(row(object) + words_, 0);
    bits_[at] |= bit(cluster);
  }
  void reset(ObjectNum object, unsigned cluster) {
    const std::size_t at = row(object) + (cluster >> 6);
    if (at < bits_.size()) bits_[at] &= ~bit(cluster);
  }
  [[nodiscard]] bool test(ObjectNum object, unsigned cluster) const {
    const std::size_t at = row(object) + (cluster >> 6);
    return at < bits_.size() && (bits_[at] & bit(cluster)) != 0;
  }

  /// First cluster of the object's set in ring order from `local` — local+1,
  /// local+2, ... wrapping past the top cluster to 0 — never `local` itself;
  /// -1 when there is none.
  [[nodiscard]] int first_in_ring(ObjectNum object, unsigned local) const {
    const std::size_t base = row(object);
    if (base >= bits_.size()) return -1;
    const unsigned local_word = local >> 6;
    const unsigned local_bit = local & 63;
    const std::uint64_t own = bits_[base + local_word];
    const std::uint64_t above =
        local_bit == 63 ? 0 : own & (~std::uint64_t{0} << (local_bit + 1));
    if (above != 0) return lowest(local_word, above);
    for (unsigned i = 1; i < words_; ++i) {
      const unsigned w = (local_word + i) % words_;
      if (const std::uint64_t bits = bits_[base + w]; bits != 0) return lowest(w, bits);
    }
    const std::uint64_t below = own & (bit(local) - 1);
    return below != 0 ? lowest(local_word, below) : -1;
  }

 private:
  [[nodiscard]] std::size_t row(ObjectNum object) const {
    return std::size_t{object} * words_;
  }
  [[nodiscard]] static std::uint64_t bit(unsigned cluster) {
    return std::uint64_t{1} << (cluster & 63);
  }
  /// The cluster of the lowest set bit of `bits`, the set's word `word`.
  [[nodiscard]] static int lowest(unsigned word, std::uint64_t bits) {
    return static_cast<int>((word << 6) + static_cast<unsigned>(std::countr_zero(bits)));
  }

  unsigned words_ = 0;
  std::vector<std::uint64_t> bits_;  ///< universe rows of words_ words
};

}  // namespace webcache::sim

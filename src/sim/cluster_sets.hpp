// Per-object sets of proxy clusters.
//
// Cooperation needs one question answered fast: which other cluster holds
// object o? A ClusterSets keeps, for every object of the trace universe, one
// bit per cluster in ceil(P/8) bytes laid out contiguously, so a lookup is
// one indexed row read plus a ring-ordered bit scan at any proxy count, and
// up to 8 clusters cost one byte per object. The sequential engine uses it
// as the live residency index; the sharded engine uses the same type for its
// epoch-start digests.
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
      : bytes_((clusters + 7) / 8), bits_(std::size_t{universe} * bytes_, 0) {}

  /// Adds `cluster` to the object's set (growing past the universe if a
  /// trace names an object beyond it).
  void set(ObjectNum object, unsigned cluster) {
    assert(bytes_ > 0 && "ClusterSets::set on a set sized for no clusters");
    const std::size_t at = row(object) + (cluster >> 3);
    if (at >= bits_.size()) bits_.resize(row(object) + bytes_, 0);
    bits_[at] |= bit(cluster);
  }
  void reset(ObjectNum object, unsigned cluster) {
    const std::size_t at = row(object) + (cluster >> 3);
    if (at < bits_.size()) bits_[at] &= static_cast<std::uint8_t>(~bit(cluster));
  }
  [[nodiscard]] bool test(ObjectNum object, unsigned cluster) const {
    const std::size_t at = row(object) + (cluster >> 3);
    return at < bits_.size() && (bits_[at] & bit(cluster)) != 0;
  }

  /// First cluster of the object's set in ring order from `local` — local+1,
  /// local+2, ... wrapping past the top cluster to 0 — never `local` itself;
  /// -1 when there is none.
  [[nodiscard]] int first_in_ring(ObjectNum object, unsigned local) const {
    const std::size_t base = row(object);
    if (base >= bits_.size()) return -1;
    const unsigned local_byte = local >> 3;
    const unsigned own = bits_[base + local_byte];
    const unsigned above = own & (~0U << ((local & 7) + 1));
    if (above != 0) return lowest(local_byte, above);
    for (unsigned i = 1; i < bytes_; ++i) {
      const unsigned b = (local_byte + i) % bytes_;
      if (const unsigned bits = bits_[base + b]; bits != 0) return lowest(b, bits);
    }
    const unsigned below = own & (bit(local) - 1U);
    return below != 0 ? lowest(local_byte, below) : -1;
  }

 private:
  [[nodiscard]] std::size_t row(ObjectNum object) const {
    return std::size_t{object} * bytes_;
  }
  [[nodiscard]] static std::uint8_t bit(unsigned cluster) {
    return static_cast<std::uint8_t>(1U << (cluster & 7));
  }
  /// The cluster of the lowest set bit of `bits`, the set's byte `byte`.
  [[nodiscard]] static int lowest(unsigned byte, unsigned bits) {
    return static_cast<int>((byte << 3) + static_cast<unsigned>(std::countr_zero(bits)));
  }

  unsigned bytes_ = 0;
  std::vector<std::uint8_t> bits_;  ///< universe rows of bytes_ bytes
};

}  // namespace webcache::sim

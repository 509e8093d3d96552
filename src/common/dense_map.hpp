// Flat, preallocated replacements for the unordered containers that used to
// sit on the simulator's hot path. ObjectNum (and the overlay's node slots)
// are *dense* uint32 ids, so hashing them into bucket chains pays for
// generality nothing here needs:
//
//   * DenseMap<T> — direct-indexed value array over the dense id universe,
//     one value per slot and nothing else: an absent key holds a value the
//     map never stores (the maximum of an unsigned T, NaN for a double), so
//     a slot costs exactly sizeof(T). The right shape only where a
//     universe-scale population is read on every request (a proxy cache's
//     index, Hier-GD's fetch levels, the *-EC tiers' costs): one
//     cache-missing array read replaces hash+probe.
//   * FlatMap<T> — open-addressing linear-probe table with backward-shift
//     deletion over power-of-two capacity. The right shape for structures
//     bounded by a *cache's* capacity rather than the universe (a client
//     cache holds ~5 objects out of 10^6, a cluster's P2P location index and
//     exact directory ~1,000): memory follows the entries, not the ids.
//     Lookup is one multiply + shift and a short probe run over contiguous
//     memory.
//
// Both containers are deterministic: given the same operation sequence they
// produce the same layout and the same iteration order, which keeps every
// metrics/sweep export byte-identical across runs and thread counts.
// Iteration order is ascending-key for DenseMap and probe-slot order for
// FlatMap — callers that need a canonical order must sort (they did with the
// unordered containers too).
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace webcache {

/// Direct-indexed map over dense uint32 keys, one T per slot. An absent key
/// holds the marker kAbsent, which set() refuses in every build type, so no
/// live value can be mistaken for a hole. Grows on demand to the largest key
/// set (amortized O(1)), so callers that know the universe should reserve()
/// it up front.
template <typename T>
class DenseMap {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>,
                "DenseMap: T needs a marker value (unsigned integer or double)");

 public:
  /// The value an absent slot holds: the maximum of an unsigned T, NaN for a
  /// double.
  static constexpr T kAbsent = [] {
    if constexpr (std::is_same_v<T, double>) {
      return std::numeric_limits<double>::quiet_NaN();
    } else {
      return std::numeric_limits<T>::max();
    }
  }();

  DenseMap() = default;
  explicit DenseMap(std::size_t universe) { reserve(universe); }

  /// Preallocates absent slots for keys [0, universe). Never shrinks.
  void reserve(std::size_t universe) {
    if (universe > slots_.size()) slots_.resize(universe, kAbsent);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of allocated slots (the key universe touched so far).
  [[nodiscard]] std::size_t universe() const { return slots_.size(); }
  /// Bytes held by the slot array: sizeof(T) per allocated slot.
  [[nodiscard]] std::size_t memory_bytes() const { return slots_.capacity() * sizeof(T); }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    return key < slots_.size() && !absent(slots_[key]);
  }

  /// The value stored for `key`, or nullptr when absent. Read-only: every
  /// write goes through set(). Valid until the slot array grows.
  [[nodiscard]] const T* find(std::uint32_t key) const {
    return contains(key) ? &slots_[key] : nullptr;
  }

  /// Inserts `key` or overwrites its value. Throws std::logic_error on the
  /// marker value, which would silently erase the key.
  void set(std::uint32_t key, T value) {
    if (absent(value)) refuse_marker();
    if (key >= slots_.size()) slots_.resize(static_cast<std::size_t>(key) + 1, kAbsent);
    T& slot = slots_[key];
    if (absent(slot)) ++size_;
    slot = value;
  }

  bool erase(std::uint32_t key) {
    if (!contains(key)) return false;
    slots_[key] = kAbsent;
    --size_;
    return true;
  }

  /// Visits live entries in ascending key order: fn(key, value).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t key = 0; key < slots_.size(); ++key) {
      if (!absent(slots_[key])) fn(key, slots_[key]);
    }
  }

 private:
  /// Out of line, so set() stays small enough to inline into the heap's
  /// sift loops.
  [[noreturn, gnu::cold, gnu::noinline]] static void refuse_marker() {
    throw std::logic_error("DenseMap::set: value is the absence marker");
  }

  [[nodiscard]] static bool absent(T value) {
    if constexpr (std::is_same_v<T, double>) {
      return std::isnan(value);
    } else {
      return value == kAbsent;
    }
  }

  std::vector<T> slots_;
  std::size_t size_ = 0;
};

/// Open-addressing hash map for dense uint32 keys whose population is
/// bounded by a cache capacity, not the universe: linear probing over a
/// power-of-two slot array, Fibonacci hashing, backward-shift deletion (no
/// tombstones, so load factor never degrades). Key 0xFFFFFFFF is reserved as
/// the empty marker — dense ids never reach it.
template <typename T>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Bytes held by the slot array: one key and one value per slot, empty
  /// slots included.
  [[nodiscard]] std::size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

  [[nodiscard]] bool contains(std::uint32_t key) const { return find(key) != nullptr; }

  [[nodiscard]] const T* find(std::uint32_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = ideal(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] T* find(std::uint32_t key) {
    return const_cast<T*>(std::as_const(*this).find(key));
  }

  /// Inserts a default-constructed value if absent.
  T& operator[](std::uint32_t key) {
    assert(key != kEmpty && "FlatMap: key 0xFFFFFFFF is reserved");
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) grow();
    for (std::size_t i = ideal(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
      if (slots_[i].key == kEmpty) {
        slots_[i].key = key;
        slots_[i].value = T{};
        ++size_;
        return slots_[i].value;
      }
    }
  }

  bool erase(std::uint32_t key) {
    if (slots_.empty()) return false;
    std::size_t i = ideal(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == key) break;
      if (slots_[i].key == kEmpty) return false;
    }
    // Backward-shift deletion: pull displaced entries of the probe run into
    // the hole so lookups never need tombstones.
    std::size_t j = i;
    for (;;) {
      slots_[i].key = kEmpty;
      std::size_t k;
      do {
        j = (j + 1) & mask_;
        if (slots_[j].key == kEmpty) {
          --size_;
          return true;
        }
        k = ideal(slots_[j].key);
        // Keep scanning while entry j's ideal slot k lies within (i, j]
        // cyclically — moving it to i would lift it before its probe start.
      } while (i <= j ? (i < k && k <= j) : (i < k || k <= j));
      slots_[i] = std::move(slots_[j]);
      i = j;
    }
  }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Pre-sizes the table so `expected` entries stay under the 7/8 load
  /// ceiling without any mid-run rehash. Never shrinks.
  void reserve(std::size_t expected) {
    std::size_t capacity = 16;
    while (capacity * 7 < expected * 8) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

  /// Visits entries in probe-slot order (deterministic for a given operation
  /// history): fn(key, value).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t key = kEmpty;
    T value{};
  };

  [[nodiscard]] std::size_t ideal(std::uint32_t key) const {
    // Fibonacci hash: one multiply spreads consecutive dense ids across the
    // table; the shift keeps exactly log2(capacity) top bits.
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      for (std::size_t i = ideal(s.key);; i = (i + 1) & mask_) {
        if (slots_[i].key == kEmpty) {
          slots_[i] = std::move(s);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace webcache

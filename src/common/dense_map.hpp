// Flat, preallocated replacements for the unordered containers that used to
// sit on the simulator's hot path. ObjectNum (and the overlay's node slots)
// are *dense* uint32 ids, so hashing them into bucket chains pays for
// generality nothing here needs:
//
//   * DenseMap<T> / DenseSet — direct-indexed value array over the dense id
//     universe, with a per-slot live flag so insert() and erase() are a
//     single store. The right shape for structures
//     keyed by "any object in the trace" held once per cluster or proxy
//     (residency/location indices, per-proxy fetch costs, the exact lookup
//     directory): one cache-missing array read replaces hash+probe.
//   * FlatMap<T> — open-addressing linear-probe table with backward-shift
//     deletion over power-of-two capacity. The right shape for structures
//     bounded by a *cache's* capacity rather than the universe (a client
//     cache holds ~5 objects out of 10^6; a universe-sized array per client
//     would be absurd). Lookup is one multiply + shift and a short probe run
//     over contiguous memory.
//
// Both containers are deterministic: given the same operation sequence they
// produce the same layout and the same iteration order, which keeps every
// metrics/sweep export byte-identical across runs and thread counts.
// Iteration order is ascending-key for DenseMap and probe-slot order for
// FlatMap — callers that need a canonical order must sort (they did with the
// unordered containers too).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace webcache {

/// Direct-indexed map over dense uint32 keys, one live flag per slot. Grows
/// on demand to the largest key inserted (amortized O(1)), so callers that
/// know the universe should reserve() it up front.
template <typename T>
class DenseMap {
 public:
  DenseMap() = default;
  explicit DenseMap(std::size_t universe) { reserve(universe); }

  /// Preallocates slots for keys [0, universe). Never shrinks.
  void reserve(std::size_t universe) {
    if (universe > slots_.size()) slots_.resize(universe);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of allocated slots (the key universe touched so far).
  [[nodiscard]] std::size_t universe() const { return slots_.size(); }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    return key < slots_.size() && slots_[key].live;
  }

  [[nodiscard]] T* find(std::uint32_t key) {
    return contains(key) ? &slots_[key].value : nullptr;
  }
  [[nodiscard]] const T* find(std::uint32_t key) const {
    return contains(key) ? &slots_[key].value : nullptr;
  }

  /// Inserts a default-constructed value if absent.
  T& operator[](std::uint32_t key) {
    if (key >= slots_.size()) slots_.resize(static_cast<std::size_t>(key) + 1);
    Slot& s = slots_[key];
    if (!s.live) {
      s.live = true;
      s.value = T{};
      ++size_;
    }
    return s.value;
  }

  bool erase(std::uint32_t key) {
    if (!contains(key)) return false;
    slots_[key].live = false;
    --size_;
    return true;
  }

  /// Visits live entries in ascending key order: fn(key, value).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t key = 0; key < slots_.size(); ++key) {
      if (slots_[key].live) fn(key, slots_[key].value);
    }
  }

 private:
  struct Slot {
    bool live = false;
    T value{};
  };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Direct-indexed set over dense uint32 keys: one 32-bit membership flag per
/// universe slot. memory_bytes() reports that flat representation honestly;
/// the directory ablation prints it as the exact directory's footprint.
class DenseSet {
 public:
  DenseSet() = default;
  explicit DenseSet(std::size_t universe) { reserve(universe); }

  void reserve(std::size_t universe) {
    if (universe > members_.size()) members_.resize(universe, 0);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t universe() const { return members_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return members_.capacity() * sizeof(std::uint32_t);
  }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    return key < members_.size() && members_[key] != 0;
  }

  /// Returns true if the key was newly inserted.
  bool insert(std::uint32_t key) {
    if (key >= members_.size()) members_.resize(static_cast<std::size_t>(key) + 1, 0);
    if (members_[key] != 0) return false;
    members_[key] = 1;
    ++size_;
    return true;
  }

  bool erase(std::uint32_t key) {
    if (!contains(key)) return false;
    members_[key] = 0;
    --size_;
    return true;
  }

  /// Visits members in ascending key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t key = 0; key < members_.size(); ++key) {
      if (members_[key] != 0) fn(key);
    }
  }

 private:
  std::vector<std::uint32_t> members_;
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
  /// ceiling without any mid-run rehash (the Cache::reserve_universe hint
  /// for policies whose index is a FlatMap). Never shrinks.
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

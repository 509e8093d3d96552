// Object -> uint32 slot index of the eviction-order structures.
//
// EvictionHeap maps each object to its node's heap position, and NodeLists,
// the list store under LFU-DA, greedy-dual, ARC and W-TinyLFU, maps it to
// its list node. Both start hashed (a FlatMap: a client cache holds a
// handful of objects out of a universe of millions) and switch to a
// direct-indexed DenseMap once Cache::reserve_universe() declares a
// proxy-scale population, turning every probe into one array access. The
// direct form costs 4 bytes per object of the universe: a slot is the bare
// uint32, and 0xFFFFFFFF, which no heap position or node number reaches,
// marks an absent object. The index is pure bookkeeping: which form it takes
// never changes which object a policy evicts.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/dense_map.hpp"
#include "common/types.hpp"

namespace webcache::cache {

class ObjectIndex {
 public:
  /// Declares that keys are dense in [0, universe) and the index may hold a
  /// universe-scale population: switches to the direct-indexed form,
  /// carrying every live entry over.
  void reserve_universe(std::size_t universe) {
    direct_.reserve(universe);
    if (!dense_) {
      dense_ = true;
      hashed_.for_each(
          [this](std::uint32_t key, std::uint32_t slot) { direct_.set(key, slot); });
      hashed_.clear();
    }
  }

  /// Slot of `object`, or nullptr when absent. Valid until the next mutation.
  [[nodiscard]] const std::uint32_t* find(ObjectNum object) const {
    return dense_ ? direct_.find(object) : hashed_.find(object);
  }

  /// Inserts `object` or overwrites its slot.
  void set(ObjectNum object, std::uint32_t slot) {
    if (dense_) {
      direct_.set(object, slot);
    } else {
      hashed_[object] = slot;
    }
  }

  void erase(ObjectNum object) {
    if (dense_) {
      direct_.erase(object);
    } else {
      hashed_.erase(object);
    }
  }

 private:
  bool dense_ = false;
  FlatMap<std::uint32_t> hashed_;
  DenseMap<std::uint32_t> direct_;
};

}  // namespace webcache::cache

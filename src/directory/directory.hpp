// Proxy-side lookup directory of the P2P client cache (paper Section 4.2).
//
// The proxy must know whether a missed object *might* live in its P2P client
// cache before redirecting the request into the overlay. Two representations
// are implemented, matching the paper:
//   * ExactDirectory — a hashtable of all cached objectIds; no false
//     positives, memory proportional to entries;
//   * BloomDirectory — a counting Bloom filter (deletions happen constantly
//     as client caches evict); small and constant-size, but false positives
//     send requests into the overlay for objects that are not there, costing
//     an extra Tp2p before falling back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bloom/counting_bloom.hpp"
#include "common/dense_map.hpp"
#include "common/types.hpp"
#include "common/uint128.hpp"
#include "obs/registry.hpp"

namespace webcache::directory {

class LookupDirectory {
 public:
  /// `registry` (optional) receives the directory's maintenance/query
  /// counters (`<prefix>adds`, `<prefix>removes`, `<prefix>lookups`,
  /// `<prefix>positives`); without one the directory keeps a private
  /// registry, so standalone use needs no wiring.
  explicit LookupDirectory(obs::Registry* registry = nullptr,
                           const std::string& prefix = "dir.")
      : c_adds_(obs::ensure_registry(registry, owned_registry_).counter(prefix + "adds")),
        c_removes_(
            obs::ensure_registry(registry, owned_registry_).counter(prefix + "removes")),
        c_lookups_(
            obs::ensure_registry(registry, owned_registry_).counter(prefix + "lookups")),
        c_positives_(
            obs::ensure_registry(registry, owned_registry_).counter(prefix + "positives")) {}
  virtual ~LookupDirectory() = default;

  /// Registers a store receipt: `object` is now in the P2P client cache.
  virtual void add(ObjectNum object) = 0;

  /// Processes an eviction notice: `object` left the P2P client cache.
  virtual void remove(ObjectNum object) = 0;

  /// May return false positives depending on the representation; never
  /// false negatives (given consistent add/remove).
  [[nodiscard]] virtual bool may_contain(ObjectNum object) const = 0;

  /// Same membership answer as may_contain, but without touching the
  /// lookup/positive counters — for Simulator::audit(), whose probes must
  /// not perturb the metrics a run exports.
  [[nodiscard]] virtual bool audit_contains(ObjectNum object) const = 0;

  [[nodiscard]] virtual std::size_t entry_count() const = 0;
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;
  [[nodiscard]] virtual std::string kind() const = 0;

 protected:
  // Instrumentation hooks for the implementations. note_lookup is const
  // because may_contain is; the counters live in the registry, not in the
  // directory's logical state.
  void note_add() { c_adds_.inc(); }
  void note_remove() { c_removes_.inc(); }
  void note_lookup(bool positive) const {
    c_lookups_.inc();
    if (positive) c_positives_.inc();
  }

 private:
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter& c_adds_;
  obs::Counter& c_removes_;
  obs::Counter& c_lookups_;
  obs::Counter& c_positives_;
};

/// Exact membership index of the objects cached in the P2P client cache: the
/// "hashtable of objectIds" the paper describes, a FlatMap holding one slot
/// per entry and nothing per object of the universe.
class ExactDirectory final : public LookupDirectory {
 public:
  /// `expected_entries` (optional) pre-sizes the table so that many entries
  /// fill it at most 7/16: most lookups miss, and a miss probes until it
  /// meets an empty slot. More entries grow it.
  explicit ExactDirectory(obs::Registry* registry = nullptr, const std::string& prefix = "dir.",
                          std::size_t expected_entries = 0)
      : LookupDirectory(registry, prefix) {
    entries_.reserve(2 * expected_entries);
  }

  void add(ObjectNum object) override {
    entries_[object] = {};
    note_add();
  }
  void remove(ObjectNum object) override {
    entries_.erase(object);
    note_remove();
  }
  [[nodiscard]] bool may_contain(ObjectNum object) const override {
    const bool positive = entries_.contains(object);
    note_lookup(positive);
    return positive;
  }
  [[nodiscard]] bool audit_contains(ObjectNum object) const override {
    return entries_.contains(object);
  }
  [[nodiscard]] std::size_t entry_count() const override { return entries_.size(); }
  /// The table's slots, empty ones included: 8 bytes each (the id and its
  /// padded empty value).
  [[nodiscard]] std::size_t memory_bytes() const override { return entries_.memory_bytes(); }
  [[nodiscard]] std::string kind() const override { return "exact"; }

 private:
  struct Present {};
  FlatMap<Present> entries_;
};

/// Counting-Bloom-filter directory over SHA-1 objectIds.
class BloomDirectory final : public LookupDirectory {
 public:
  /// `object_ids[o]` is the 128-bit objectId of dense object o (shared,
  /// not owned); `expected_entries`/`target_fpr` size the filter.
  BloomDirectory(std::shared_ptr<const std::vector<Uint128>> object_ids,
                 std::size_t expected_entries, double target_fpr,
                 obs::Registry* registry = nullptr, const std::string& prefix = "dir.");

  void add(ObjectNum object) override;
  void remove(ObjectNum object) override;
  [[nodiscard]] bool may_contain(ObjectNum object) const override;
  [[nodiscard]] bool audit_contains(ObjectNum object) const override;
  [[nodiscard]] std::size_t entry_count() const override { return entries_; }
  [[nodiscard]] std::size_t memory_bytes() const override { return filter_.memory_bytes(); }
  [[nodiscard]] std::string kind() const override { return "bloom"; }

  [[nodiscard]] const bloom::CountingBloomFilter& filter() const { return filter_; }

 private:
  [[nodiscard]] const Uint128& id_of(ObjectNum object) const;

  std::shared_ptr<const std::vector<Uint128>> object_ids_;
  bloom::CountingBloomFilter filter_;
  std::size_t entries_ = 0;
};

/// Builds the dense-object-id -> SHA-1(URL) table shared by Bloom
/// directories and the Pastry placement logic.
[[nodiscard]] std::shared_ptr<const std::vector<Uint128>> build_object_id_table(
    ObjectNum distinct_objects);

}  // namespace webcache::directory

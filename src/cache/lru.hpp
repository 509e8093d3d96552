// Least-Recently-Used cache: classic doubly-linked recency list over an
// unordered index; all operations O(1). Used for the private browser caches
// and FC-EC's tier tracker, as a selectable policy (alone or behind TinyLFU
// admission), and as the reference recency structure in tests.
#pragma once

#include <list>

#include "cache/cache.hpp"
#include "common/dense_map.hpp"

namespace webcache::cache {

class LruCache final : public Cache {
 public:
  explicit LruCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return index_.contains(object);
  }

  void access(ObjectNum object, double cost) override;
  InsertResult insert(ObjectNum object, double cost) override;
  bool erase(ObjectNum object) override;
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

 private:
  // Front = most recently used.
  std::list<ObjectNum> order_;
  FlatMap<std::list<ObjectNum>::iterator> index_;
};

}  // namespace webcache::cache

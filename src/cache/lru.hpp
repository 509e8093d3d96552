// Least-Recently-Used cache: greedy-dual at a constant cost. Greedy-dual
// with every cost equal evicts in order of last use (see greedy_dual.hpp),
// so pinning the cost to 0 makes GreedyDualCache an O(1) LRU over one FIFO
// list of the shared list store (cache/node_lists.hpp), with inflation
// staying 0. Used for the private browser caches
// and FC-EC's tier tracker, and as a selectable policy (alone or behind
// TinyLFU admission).
#pragma once

#include "cache/greedy_dual.hpp"

namespace webcache::cache {

class LruCache final : public GreedyDualCache {
 public:
  using GreedyDualCache::GreedyDualCache;

  /// Recency alone orders the cache: the caller's cost is ignored.
  void access(ObjectNum object, double /*cost*/) override { GreedyDualCache::access(object, 0.0); }
  InsertResult insert(ObjectNum object, double /*cost*/) override {
    return GreedyDualCache::insert(object, 0.0);
  }
};

}  // namespace webcache::cache

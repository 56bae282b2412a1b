#ifndef PAWS_UTIL_LRU_CACHE_H_
#define PAWS_UTIL_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/status.h"

namespace paws {

/// Small bounded map with least-recently-used eviction. Not thread-safe:
/// ServedCache below wraps it with a mutex and counters.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    CheckOrDie(capacity > 0, "LruCache: capacity must be positive");
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  /// The pointer is valid until the next non-const call.
  const V* Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
  /// beyond capacity.
  void Put(const K& key, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return;
    }
    items_.emplace_front(key, std::move(value));
    index_.emplace(key, items_.begin());
    if (index_.size() > capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
    }
  }

  void Clear() {
    items_.clear();
    index_.clear();
  }

 private:
  size_t capacity_;
  std::list<std::pair<K, V>> items_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
};

/// Cumulative lookup counters of one ServedCache.
struct ServedCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// A thread-safe LruCache of served results plus its hit/miss counters —
/// the one shape of ParkService's per-park caches. Values should be cheap
/// to copy (shared_ptrs), so a hit is a lookup, a splice and a refcount
/// bump with no heap traffic, and an evicted entry stays alive for readers
/// already holding it.
template <typename K, typename V, typename Hash = std::hash<K>>
class ServedCache {
 public:
  explicit ServedCache(size_t capacity) : lru_(capacity) {}

  /// The cached value for `key`, or `compute()`'s result, which is then
  /// cached. `compute` runs outside the lock, so two racing misses on one
  /// key both compute; callers guarantee both produce equal values, and
  /// the second insert just refreshes the entry.
  template <typename Compute>
  V GetOrCompute(const K& key, const Compute& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const V* hit = lru_.Get(key)) {
        ++stats_.hits;
        return *hit;
      }
      ++stats_.misses;
    }
    V value = compute();
    std::lock_guard<std::mutex> lock(mu_);
    lru_.Put(key, value);
    return value;
  }

  /// Drops every entry and zeroes the counters.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.Clear();
    stats_ = ServedCacheStats();
  }

  ServedCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  LruCache<K, V, Hash> lru_;
  ServedCacheStats stats_;
};

}  // namespace paws

#endif  // PAWS_UTIL_LRU_CACHE_H_

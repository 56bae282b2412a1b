#ifndef PAWS_UTIL_LRU_CACHE_H_
#define PAWS_UTIL_LRU_CACHE_H_

#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/status.h"

namespace paws {

/// The default entry cost: one per entry, so capacity counts entries.
template <typename V>
struct UnitCost {
  size_t operator()(const V&) const { return 1; }
};

/// Small bounded map with least-recently-used eviction by total entry
/// cost. `Cost` must be a pure function of the stored value, which the
/// cache never mutates, so an entry's cost at eviction is its cost at
/// insertion. Not thread-safe: ServedCache below wraps it with a mutex and
/// counters.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Cost = UnitCost<V>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    CheckOrDie(capacity > 0, "LruCache: capacity must be positive");
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  /// Sum of the resident entries' costs.
  size_t total_cost() const { return total_cost_; }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  /// The pointer is valid until the next non-const call.
  const V* Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Inserts (or refreshes) `key`, then evicts least-recently-used entries
  /// while the total cost exceeds capacity — never the entry just put, so
  /// a value costlier than the whole capacity is still held. Returns the
  /// number of entries evicted.
  size_t Put(const K& key, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      total_cost_ -= Cost()(it->second->second);
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
    } else {
      items_.emplace_front(key, std::move(value));
      index_.emplace(key, items_.begin());
    }
    total_cost_ += Cost()(items_.front().second);
    size_t evicted = 0;
    while (total_cost_ > capacity_ && items_.size() > 1) {
      Remove(std::prev(items_.end()));
      ++evicted;
    }
    return evicted;
  }

  /// Drops `key` if resident; returns whether it was.
  bool Erase(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    Remove(it->second);
    return true;
  }

  void Clear() {
    items_.clear();
    index_.clear();
    total_cost_ = 0;
  }

 private:
  using Items = std::list<std::pair<K, V>>;

  void Remove(typename Items::iterator item) {
    total_cost_ -= Cost()(item->second);
    index_.erase(item->first);
    items_.erase(item);
  }

  size_t capacity_;
  size_t total_cost_ = 0;
  Items items_;  // front = most recently used
  std::unordered_map<K, typename Items::iterator, Hash> index_;
};

/// Lookup counters of one ServedCache (cumulative since the last Clear)
/// plus its current contents.
struct ServedCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries dropped by the capacity bound or by Erase.
  uint64_t evictions = 0;
  /// Resident entries and the sum of their costs.
  uint64_t resident = 0;
  uint64_t resident_cost = 0;
};

/// A thread-safe LruCache of served results plus its counters — the one
/// cache shape of the serving stack: ParkService's per-park risk-map,
/// curve-table and tile caches, and TiledFeaturePlane's feature-tile pool.
/// Values should be cheap to copy (shared_ptrs), so a hit is a lookup, a
/// splice and a refcount bump with no heap traffic, and an evicted entry
/// stays alive for readers already holding it.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Cost = UnitCost<V>>
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
    stats_.evictions += lru_.Put(key, value);
    return value;
  }

  /// Never waits: the cached value for `key` when the lock is free, the
  /// key is resident and `accept(value)` holds, else nullopt. `accept`
  /// runs under the lock, so it must be cheap. A resident key's recency
  /// is refreshed as by GetOrCompute, but only a returned value counts
  /// (as a hit): a caller that gets nullopt falls back to GetOrCompute,
  /// which counts the request once.
  template <typename Accept>
  std::optional<V> TryGet(const K& key, const Accept& accept) {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return std::nullopt;
    const V* hit = lru_.Get(key);
    if (hit == nullptr || !accept(*hit)) return std::nullopt;
    ++stats_.hits;
    return *hit;
  }

  /// Drops `key` if resident, counting it as an eviction.
  void Erase(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (lru_.Erase(key)) ++stats_.evictions;
  }

  /// Drops every entry and zeroes the counters.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.Clear();
    stats_ = ServedCacheStats();
  }

  ServedCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ServedCacheStats stats = stats_;
    stats.resident = lru_.size();
    stats.resident_cost = lru_.total_cost();
    return stats;
  }

 private:
  mutable std::mutex mu_;
  LruCache<K, V, Hash, Cost> lru_;
  ServedCacheStats stats_;
};

}  // namespace paws

#endif  // PAWS_UTIL_LRU_CACHE_H_

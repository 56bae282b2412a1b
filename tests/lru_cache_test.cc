#include "util/lru_cache.h"

#include <memory>
#include <optional>
#include <string>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(LruCacheTest, GetReturnsNullForMissingKey) {
  LruCache<int, std::string> cache(2);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, PutThenGetRoundTrips) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  cache.Put(3, "three");  // evicts 1 (least recently used)
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, GetRefreshesRecency) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_NE(cache.Get(1), nullptr);  // 1 becomes most recent
  cache.Put(3, "three");             // evicts 2, not 1
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(LruCacheTest, PutRefreshesExistingKeyWithoutEviction) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  cache.Put(1, "uno");  // refresh, no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Get(1), "uno");
  EXPECT_NE(cache.Get(2), nullptr);
}

TEST(LruCacheTest, ClearEmptiesTheCache) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
}

// A compute function that counts its calls and returns a fresh object, so
// a hit (the cached object) is distinguishable from a recompute.
struct CountingCompute {
  std::shared_ptr<const std::string> operator()() const {
    ++*calls;
    return std::make_shared<const std::string>(value);
  }
  int* calls;
  std::string value;
};

TEST(ServedCacheTest, CountsHitsAndMissesAndServesTheCachedObject) {
  ServedCache<int, std::shared_ptr<const std::string>> cache(2);
  int calls = 0;
  const auto first = cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  const auto second = cache.GetOrCompute(1, CountingCompute{&calls, "uno"});
  EXPECT_EQ(first.get(), second.get());  // hit = the cached object
  EXPECT_EQ(*second, "one");
  EXPECT_EQ(calls, 1);
  cache.GetOrCompute(2, CountingCompute{&calls, "two"});
  EXPECT_EQ(calls, 2);
  const ServedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ServedCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  ServedCache<int, std::shared_ptr<const std::string>> cache(2);
  int calls = 0;
  cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  cache.GetOrCompute(2, CountingCompute{&calls, "two"});
  cache.GetOrCompute(1, CountingCompute{&calls, "one"});    // 1 most recent
  cache.GetOrCompute(3, CountingCompute{&calls, "three"});  // evicts 2
  EXPECT_EQ(calls, 3);
  cache.GetOrCompute(1, CountingCompute{&calls, "one"});  // still cached
  EXPECT_EQ(calls, 3);
  cache.GetOrCompute(2, CountingCompute{&calls, "two"});  // recomputed
  EXPECT_EQ(calls, 4);
  const ServedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(ServedCacheTest, ClearDropsEntriesAndZeroesCounters) {
  ServedCache<int, std::shared_ptr<const std::string>> cache(2);
  int calls = 0;
  const auto held = cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  cache.Clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // The entry is gone (recomputed), but a reader's copy stays valid.
  const auto again = cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  EXPECT_EQ(calls, 2);
  EXPECT_NE(held.get(), again.get());
  EXPECT_EQ(*held, "one");
  EXPECT_EQ(cache.stats().misses, 1u);
}

// Charges each entry its string length, as the feature-tile pool charges
// each tile its bytes.
struct LengthCost {
  size_t operator()(const std::shared_ptr<const std::string>& s) const {
    return s->size();
  }
};

TEST(ServedCacheTest, CostWeightedEvictionErasureAndRefresh) {
  ServedCache<int, std::shared_ptr<const std::string>, std::hash<int>,
              LengthCost>
      cache(6);
  int calls = 0;
  cache.GetOrCompute(1, CountingCompute{&calls, "aa"});
  cache.GetOrCompute(2, CountingCompute{&calls, "bb"});
  cache.GetOrCompute(1, CountingCompute{&calls, "aa"});  // 1 most recent
  // Cost 2 + 2 + 3 exceeds 6: the least recently used entry (2) goes.
  cache.GetOrCompute(3, CountingCompute{&calls, "ccc"});
  ServedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident, 2u);
  EXPECT_EQ(stats.resident_cost, 5u);
  cache.GetOrCompute(1, CountingCompute{&calls, "aa"});
  EXPECT_EQ(calls, 3);  // 1 survived

  // An entry costlier than the whole capacity evicts everything else but
  // is itself kept: the newest entry is never evicted.
  cache.GetOrCompute(4, CountingCompute{&calls, "dddddddd"});
  cache.GetOrCompute(4, CountingCompute{&calls, "dddddddd"});
  EXPECT_EQ(calls, 4);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.resident_cost, 8u);

  // Erase counts as an eviction; erasing an absent key counts nothing.
  cache.Erase(4);
  cache.Erase(4);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.resident_cost, 0u);

  // A racing miss: another reader inserts key 5 while this one computes.
  // The second insert refreshes the entry and replaces its cost.
  const auto served = cache.GetOrCompute(5, [&] {
    cache.GetOrCompute(5, CountingCompute{&calls, "e"});
    return std::make_shared<const std::string>("eee");
  });
  EXPECT_EQ(*served, "eee");
  stats = cache.stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.resident_cost, 3u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(*cache.GetOrCompute(5, CountingCompute{&calls, "e"}), "eee");
}

using StringPtr = std::shared_ptr<const std::string>;

// Each request counts exactly one hit or one miss: TryGet counts the hits
// it returns and nothing else, and its caller's GetOrCompute fallback
// counts the rest.
TEST(ServedCacheTest, TryGetCountsAHitOnlyWhenItReturnsAValue) {
  ServedCache<int, StringPtr> cache(2);
  const auto accept = [](const StringPtr&) { return true; };
  const auto refuse = [](const StringPtr&) { return false; };
  int calls = 0;

  EXPECT_FALSE(cache.TryGet(1, accept).has_value());  // absent
  ServedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  const auto stored = cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  const std::optional<StringPtr> hit = cache.TryGet(1, accept);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), stored.get());  // the cached object itself
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A resident value the caller refuses counts nothing; the fallback
  // counts the request once, as a hit, without recomputing.
  EXPECT_FALSE(cache.TryGet(1, refuse).has_value());
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.GetOrCompute(1, CountingCompute{&calls, "uno"}).get(),
            stored.get());
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(calls, 1);
}

TEST(ServedCacheTest, TryGetHitRefreshesRecencyLikeGetOrCompute) {
  ServedCache<int, StringPtr> cache(2);
  const auto accept = [](const StringPtr&) { return true; };
  int calls = 0;
  cache.GetOrCompute(1, CountingCompute{&calls, "one"});
  cache.GetOrCompute(2, CountingCompute{&calls, "two"});
  ASSERT_TRUE(cache.TryGet(1, accept).has_value());      // 1 most recent
  cache.GetOrCompute(3, CountingCompute{&calls, "three"});  // evicts 2
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(cache.TryGet(1, accept).has_value());
  EXPECT_FALSE(cache.TryGet(2, accept).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

}  // namespace
}  // namespace paws

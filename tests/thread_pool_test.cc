#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(ParallelismConfigTest, ResolvesExplicitCounts) {
  EXPECT_EQ(ParallelismConfig{1}.ResolveNumThreads(), 1);
  EXPECT_EQ(ParallelismConfig{5}.ResolveNumThreads(), 5);
  EXPECT_EQ(ParallelismConfig::Serial().num_threads, 1);
  EXPECT_GE(ParallelismConfig{0}.ResolveNumThreads(), 1);
}

TEST(ThreadPoolParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const int n : {0, 1, 7, 64, 1000}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, n, /*grain=*/8, /*max_threads=*/4,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolParallelForTest, ChunksRespectGrainAndRange) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.ParallelFor(3, 50, /*grain=*/10, /*max_threads=*/3,
                   [&](std::int64_t lo, std::int64_t hi) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.emplace_back(lo, hi);
                   });
  std::int64_t covered = 0;
  for (const auto& c : chunks) {
    EXPECT_LT(c.first, c.second);
    EXPECT_LE(c.second - c.first, 10);
    covered += c.second - c.first;
  }
  EXPECT_EQ(covered, 47);
}

TEST(ThreadPoolParallelForTest, SerialMaxThreadsRunsInlineAsOneChunk) {
  ThreadPool pool(2);
  int calls = 0;
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(0, 100, /*grain=*/1, /*max_threads=*/1,
                   [&](std::int64_t lo, std::int64_t hi) {
                     ++calls;  // no lock needed: must run on the caller
                     EXPECT_EQ(std::this_thread::get_id(), caller);
                     EXPECT_EQ(lo, 0);
                     EXPECT_EQ(hi, 100);
                   });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, 8, /*grain=*/1, /*max_threads=*/3,
                   [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i) {
                       // Nested region: must execute inline on this thread.
                       pool.ParallelFor(i * 8, (i + 1) * 8, 1, 3,
                                        [&](std::int64_t l, std::int64_t h) {
                                          for (std::int64_t j = l; j < h; ++j)
                                            hits[j].fetch_add(1);
                                        });
                     }
                   });
  for (int j = 0; j < 64; ++j) EXPECT_EQ(hits[j].load(), 1);
}

TEST(ThreadPoolParallelForTest, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, /*grain=*/1, /*max_threads=*/3,
                       [&](std::int64_t lo, std::int64_t) {
                         if (lo == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(1);
  pool.ParallelFor(5, 5, 1, 4, [&](std::int64_t, std::int64_t) { FAIL(); });
  pool.ParallelFor(5, 3, 1, 4, [&](std::int64_t, std::int64_t) { FAIL(); });
}

TEST(ThreadPoolParallelForTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::int64_t sum = 0;
  pool.ParallelFor(0, 10, 2, 8, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolParallelForTest, BackToBackJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(0, 256, 16, 4, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t local = 0;
      for (std::int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 256 * 255 / 2);
  }
}

TEST(ParallelForConfigTest, HonorsConfigAndMatchesSerialResult) {
  std::vector<double> serial(512), parallel(512);
  auto fill = [](std::vector<double>* out) {
    return [out](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        (*out)[i] = static_cast<double>(i) * 0.5 + 1.0;
      }
    };
  };
  ParallelFor(ParallelismConfig::Serial(), 0, 512, 32, fill(&serial));
  ParallelFor(ParallelismConfig{4}, 0, 512, 32, fill(&parallel));
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPoolDedicatedThreadsTest, CoversEveryIndexOnceAndRethrows) {
  for (const int width : {1, 2, 4, 0 /* hardware default */}) {
    std::vector<std::atomic<int>> hits(37);
    ForEachOnDedicatedThreads(ParallelismConfig{width}, 37,
                              [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 37; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "width " << width << " index " << i;
    }
    EXPECT_THROW(ForEachOnDedicatedThreads(ParallelismConfig{width}, 37,
                                           [](int i) {
                                             if (i == 20) {
                                               throw std::runtime_error("x");
                                             }
                                           }),
                 std::runtime_error);
  }
  ForEachOnDedicatedThreads(ParallelismConfig{4}, 0, [](int) { FAIL(); });
}

}  // namespace
}  // namespace paws

#ifndef PAWS_UTIL_THREAD_POOL_H_
#define PAWS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace paws {

/// How many threads a parallel region may use. Plumbed through every
/// parallel entry point (bagging training, CV folds, iWare threshold
/// training, batch prediction, risk-map assembly) so callers can pin the
/// degree of parallelism per component.
///
/// All parallel loops in the library are written so their output is
/// bit-identical for every thread count: random streams are forked
/// serially before the parallel region, each index writes only its own
/// output slot, and per-index arithmetic never depends on the chunking.
/// `num_threads = 1` therefore reproduces the exact N-thread results while
/// executing inline on the calling thread (no pool involvement at all).
struct ParallelismConfig {
  /// 1 = serial (run inline on the caller), N > 1 = use up to N threads,
  /// 0 = auto: $PAWS_NUM_THREADS if set, else hardware_concurrency().
  int num_threads = 0;

  /// Resolves `num_threads` to a concrete positive thread count.
  int ResolveNumThreads() const;

  static ParallelismConfig Serial() { return ParallelismConfig{1}; }
};

/// Fixed-size pool of `std::thread` workers executing chunked index
/// ranges. Deliberately work-stealing-free: one job runs at a time, and
/// the workers plus the calling thread pull contiguous `grain`-sized
/// chunks off a shared atomic cursor, so scheduling is simple to reason
/// about (and to sanitize) while load still balances dynamically.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (>= 0). The pool's effective
  /// parallelism is num_workers + 1: the thread that calls ParallelFor
  /// always participates.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Invokes `fn(chunk_begin, chunk_end)` over disjoint chunks covering
  /// [begin, end), each at most `grain` long, on at most `max_threads`
  /// threads (the caller plus up to max_threads - 1 workers). Blocks until
  /// every chunk has run. The first exception thrown by `fn` is rethrown
  /// on the calling thread after remaining chunks are cancelled.
  ///
  /// Reentrancy: a call from inside a worker (a nested parallel region)
  /// executes the whole range inline on that worker. Calls from distinct
  /// external threads serialize on an internal job lock.
  void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   int max_threads,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Process-wide pool sized to hardware_concurrency() - 1 workers,
  /// created on first use and intentionally leaked (worker threads must
  /// outlive any static destructor that might still predict).
  static ThreadPool& Shared();

 private:
  struct Job {
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
    std::int64_t grain = 1;
    /// Worker participation budget (max_threads - 1); workers that grab a
    /// non-positive slot skip the job.
    std::atomic<int> worker_slots{0};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  void WorkerLoop();
  static void RunChunks(Job* job);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;          // guarded by mu_
  std::uint64_t job_seq_ = 0;   // guarded by mu_; bumped per job
  int workers_unfinished_ = 0;  // guarded by mu_; workers yet to ack the job
  bool shutdown_ = false;       // guarded by mu_

  std::mutex submit_mu_;  // serializes concurrent external submitters
};

/// Chunked parallel loop over [begin, end) honoring `config`: runs inline
/// when the resolved thread count is 1, the range is a single chunk, or
/// the call is nested inside a pool worker; otherwise dispatches to
/// ThreadPool::Shared(). `fn(chunk_begin, chunk_end)` must write only to
/// per-index state — outputs are then bit-identical for every thread
/// count.
void ParallelFor(const ParallelismConfig& config, std::int64_t begin,
                 std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Runs `fn(i)` for every i in [0, n) on up to `config`'s thread count of
/// DEDICATED threads — the caller plus fresh std::threads, never the
/// shared pool — claiming indices one at a time. For work that takes
/// locks, which shared-pool tasks must never do (a lock holder waiting on
/// the pool while a pool task waits on the lock deadlocks). `fn(i)` must
/// write only index i's state, so results never depend on the width. The
/// first exception `fn` throws is rethrown on the caller once every
/// thread has joined; indices not yet claimed are skipped.
void ForEachOnDedicatedThreads(const ParallelismConfig& config, int n,
                               const std::function<void(int)>& fn);

}  // namespace paws

#endif  // PAWS_UTIL_THREAD_POOL_H_

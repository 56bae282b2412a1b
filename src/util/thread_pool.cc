#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/status.h"

namespace paws {

namespace {

/// True on pool worker threads and on a submitter thread while it executes
/// its job's chunks; nested parallel regions run inline rather than
/// deadlocking on the (single-job) pool.
thread_local bool tls_in_parallel_region = false;

}  // namespace

int ParallelismConfig::ResolveNumThreads() const {
  if (num_threads > 0) return num_threads;
  CheckOrDie(num_threads == 0, "ParallelismConfig: num_threads must be >= 0");
  if (const char* env = std::getenv("PAWS_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_workers) {
  CheckOrDie(num_workers >= 0, "ThreadPool: num_workers must be >= 0");
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunChunks(Job* job) {
  for (;;) {
    const std::int64_t lo = job->next.fetch_add(job->grain);
    if (lo >= job->end) break;
    const std::int64_t hi = std::min(lo + job->grain, job->end);
    try {
      (*job->fn)(lo, hi);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job->error_mu);
        if (!job->error) job->error = std::current_exception();
      }
      job->next.store(job->end);  // cancel remaining chunks
      break;
    }
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || job_seq_ != seen; });
      if (shutdown_) return;
      seen = job_seq_;
      job = job_;
    }
    // Every worker must ack every job (so the submitter knows when the job
    // state can be torn down), but only those that win a slot run chunks.
    // Waking all workers even for small max_threads trades some wakeup
    // overhead for a teardown protocol simple enough to sanitize; jobs
    // small enough to care run inline via the grain check instead.
    if (job->worker_slots.fetch_sub(1) > 0) RunChunks(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_unfinished_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain, int max_threads,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  CheckOrDie(grain > 0, "ThreadPool::ParallelFor: grain must be > 0");
  if (begin >= end) return;
  // Serial, nested, worker-free, or single-chunk calls run inline: one
  // fn(begin, end) invocation, exactly the pre-pool code path.
  if (max_threads <= 1 || tls_in_parallel_region || workers_.empty() ||
      end - begin <= grain) {
    fn(begin, end);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Job job;
  job.fn = &fn;
  job.next.store(begin);
  job.end = end;
  job.grain = grain;
  job.worker_slots.store(std::min<int>(max_threads - 1, num_workers()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_seq_;
    workers_unfinished_ = num_workers();
  }
  work_cv_.notify_all();
  // The calling thread always participates; while it runs chunks, nested
  // ParallelFor calls from those chunks must go inline (the pool runs one
  // job at a time, and submit_mu_ is already held by this thread).
  tls_in_parallel_region = true;
  RunChunks(&job);
  tls_in_parallel_region = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_unfinished_ == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::Shared() {
  // hardware_concurrency() - 1 workers (the submitter is the +1), but
  // always at least one worker so explicit num_threads > 1 pins exercise
  // real cross-thread execution even on single-core machines.
  static ThreadPool* pool = new ThreadPool(std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return *pool;
}

void ParallelFor(const ParallelismConfig& config, std::int64_t begin,
                 std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  CheckOrDie(grain > 0, "ParallelFor: grain must be > 0");
  if (begin >= end) return;
  const int max_threads = config.ResolveNumThreads();
  // Serial and single-chunk calls never touch (or lazily construct) the
  // shared pool: a process pinned to one thread stays single-threaded.
  if (max_threads <= 1 || end - begin <= grain) {
    fn(begin, end);
    return;
  }
  ThreadPool::Shared().ParallelFor(begin, end, grain, max_threads, fn);
}

void ForEachOnDedicatedThreads(const ParallelismConfig& config, int n,
                               const std::function<void(int)>& fn) {
  const int num_threads = std::min(config.ResolveNumThreads(), n);
  std::atomic<int> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto drain = [&] {
    try {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    } catch (...) {
      next.store(n);  // skip the indices no thread has claimed yet
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < num_threads; ++t) threads.emplace_back(drain);
  drain();
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace paws

#ifndef AUJOIN_UTIL_PARALLEL_H_
#define AUJOIN_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aujoin {

/// Resolves a thread-count option: 0 means "all hardware threads",
/// anything else is clamped to [1, 256].
inline int ResolveThreads(int requested) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(requested, 1, 256);
}

/// A fixed-size worker pool draining a FIFO work queue. This is the one
/// parallel-execution primitive in the codebase: ParallelFor below chunks
/// onto a pool, and the sharded join pipeline shares a single pool
/// across context preparation, candidate generation and verification of
/// every shard-pair block.
///
/// Tasks must not call blocking pool operations (Submit-and-wait,
/// WaitIdle, ParallelFor) on the pool that runs them: with every worker
/// blocked waiting for queued work, no worker is left to drain the queue.
/// Nested data-parallel loops should run serially inside a task instead
/// (the pipeline runs per-block work with num_threads = 1 for exactly
/// this reason).
class ThreadPool {
 public:
  /// Spawns ResolveThreads(num_threads) workers.
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task; returns immediately.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void WaitIdle();

  /// Runs fn(begin, end, chunk_index) over [0, n) split into contiguous
  /// chunks, one per worker, and blocks until all chunks finish. Safe to
  /// call while unrelated tasks are queued; chunk indexes are dense in
  /// [0, num_workers()).
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t, int)>& fn);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // signalled when work arrives / stops
  std::condition_variable idle_cv_;  // signalled when a task completes
  size_t active_ = 0;
  bool stop_ = false;
};

/// Runs fn(begin, end, worker_index) over [0, n) split into contiguous
/// chunks, one per worker. Blocks until all workers finish. With one
/// worker (or tiny n) the call runs inline — no thread is spawned, which
/// keeps single-threaded paths allocation-free and easy to debug. Larger
/// runs delegate to a transient ThreadPool; long-lived callers that fan
/// out repeatedly should hold their own pool and use
/// ThreadPool::ParallelFor to amortise thread creation.
void ParallelFor(size_t n, int num_threads,
                 const std::function<void(size_t, size_t, int)>& fn);

}  // namespace aujoin

#endif  // AUJOIN_UTIL_PARALLEL_H_

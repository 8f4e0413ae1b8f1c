#ifndef FTL_UTIL_THREAD_POOL_H_
#define FTL_UTIL_THREAD_POOL_H_

/// \file thread_pool.h
/// A small fixed-size thread pool plus ParallelFor helpers.
///
/// The pool runs `ftl serve`'s request workers. The ParallelFor
/// helpers do not use it: each call spawns and joins its own threads.
/// FtlEngine (candidates of one query, queries of a batch) and the
/// store's multi-segment query fan-out run on them — the "parallel
/// implementation" the paper lists as future work.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ftl {

/// Fixed-size worker pool executing void() tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (min 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Number of workers ParallelFor / ParallelForWorkers will actually
/// use for `n` items on `num_threads` threads: min(num_threads, n),
/// at least 1. Callers sizing per-worker state must use this.
size_t ParallelWorkerCount(size_t n, size_t num_threads);

/// Runs fn(worker, begin, end) over chunked subranges of [0, n).
///
/// Workers pull chunks from a shared atomic counter (dynamic
/// scheduling), so skewed per-item cost — e.g. wildly different
/// trajectory lengths — cannot strand the tail of the range on one
/// thread the way static block partitioning does. `worker` is in
/// [0, ParallelWorkerCount(n, num_threads)) and is stable for the
/// lifetime of the call, enabling per-thread scratch state indexed by
/// it. With n <= 1 or one worker, runs inline on the calling thread.
/// The calling thread participates as worker 0.
void ParallelForWorkers(
    size_t n, size_t num_threads,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn);

/// Cancellable variant: `stop` (may be null) is polled once per chunk
/// claim; once it returns true no further chunks are claimed, and
/// workers wind down after finishing their in-flight chunk.
///
/// Because chunks are claimed in increasing order and every claimed
/// chunk runs to completion, the processed items always form a
/// contiguous prefix [0, processed) of the range. Returns `processed`
/// (== n when the range completed). Deadline/cancellation plumbing in
/// FtlEngine and the store relies on this prefix guarantee for
/// reproducible partial results.
size_t ParallelForWorkers(
    size_t n, size_t num_threads, const std::function<bool()>& stop,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn);

/// Runs fn(i) for i in [0, n) across `num_threads` threads via the
/// chunked scheduler above. With n <= 1 or num_threads <= 1, runs
/// inline on the calling thread.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

}  // namespace ftl

#endif  // FTL_UTIL_THREAD_POOL_H_

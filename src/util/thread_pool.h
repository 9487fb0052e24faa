#ifndef TECORE_UTIL_THREAD_POOL_H_
#define TECORE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace tecore {
namespace util {

/// \brief Number of hardware threads (always >= 1).
int HardwareThreads();

/// \brief Map a thread-count option to an executor count: 0 means "auto"
/// (hardware concurrency), anything else is clamped to >= 1.
int ResolveThreadCount(int requested);

/// \brief A small fixed-size thread pool with chunked self-scheduling.
///
/// Construction spawns `num_threads - 1` workers; the calling thread is
/// the remaining executor and participates in ParallelFor, so
/// ThreadPool(1) runs everything inline with zero threading overhead.
/// Worker i starts on the (i+1)-th allowed CPU (the scheduler may move it
/// later): some kernels keep new bursty threads on their creator's CPU
/// for hundreds of ms, so a 100 ms ParallelFor ran no faster than a loop.
/// Tasks must not throw (the codebase is exception-free by convention).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// \brief Total executors (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// \brief Enqueue one task for the worker threads.
  void Submit(std::function<void()> task);

  /// \brief Run `fn(i)` for every i in [0, n), distributing iterations
  /// across all executors via an atomic work counter (cheap dynamic load
  /// balancing — components have wildly varying sizes). The call returns
  /// once every iteration has completed. `fn` may be invoked from multiple
  /// threads concurrently but each index is processed exactly once.
  ///
  /// Completion is per call: the caller drains the range itself and then
  /// waits only for helpers that claimed an index. A helper still queued
  /// when the range runs dry finds it empty and returns without touching
  /// `fn`. So one pool may serve many concurrent callers, a `fn` may
  /// itself call ParallelFor, and the call returns even while every worker
  /// is busy elsewhere.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop() TECORE_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  /// A forked child inherits no workers, and maybe a locked mutex_, so
  /// ParallelFor runs inline outside the owning process.
  const int owner_pid_;
  Mutex mutex_;
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ TECORE_GUARDED_BY(mutex_);
  bool shutting_down_ TECORE_GUARDED_BY(mutex_) = false;
};

/// \brief The process-wide compute pool, created on first use with
/// HardwareThreads() executors and never destroyed. Every grounding,
/// solving, mining and parallel-load pass runs on it unless a test
/// injects its own pool through the layer's `pool` option. It is
/// separate from the server's connection pool, whose workers park on
/// keep-alive and streaming connections.
ThreadPool& ComputePool();

}  // namespace util
}  // namespace tecore

#endif  // TECORE_UTIL_THREAD_POOL_H_

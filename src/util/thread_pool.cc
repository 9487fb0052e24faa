#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include <unistd.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tecore {
namespace util {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveThreadCount(int requested) {
  if (requested == 0) return HardwareThreads();
  return std::min(std::max(requested, 1), 256);
}

namespace {

/// Move the calling thread onto the k-th CPU (mod the count) of its
/// affinity mask, then restore the mask: only the starting CPU changes.
void StartOnCpu(int k) {
#if defined(__linux__)
  cpu_set_t allowed, one;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  k %= CPU_COUNT(&allowed);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed) || k-- > 0) ++cpu;  // the k-th allowed
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  }
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : owner_pid_(static_cast<int>(getpid())) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      StartOnCpu(i + 1);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t helpers = std::min(workers_.size(), n == 0 ? 0 : n - 1);
  if (helpers == 0 || static_cast<int>(getpid()) != owner_pid_) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Per-call state, shared with the helpers: one that runs after this
  // call returned finds the range empty and never dereferences `fn`.
  // Index-at-a-time claiming doubles as load balancing (component sizes
  // are heavy-tailed).
  struct Call {
    std::atomic<size_t> next{0};
    Mutex mutex;
    CondVar all_done;
    size_t done TECORE_GUARDED_BY(mutex) = 0;  // finished indices
  };
  auto call = std::make_shared<Call>();
  auto drain = [call, n, fn = &fn] {
    Call& c = *call;
    size_t ran = 0;
    size_t i;
    while ((i = c.next.fetch_add(1, std::memory_order_relaxed)) < n) {
      (*fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(c.mutex);
    c.done += ran;
    if (c.done == n) c.all_done.NotifyAll();
  };
  for (size_t h = 0; h < helpers; ++h) Submit(drain);
  drain();  // the calling thread participates
  // Wait only for indices other executors claimed.
  Call& c = *call;
  MutexLock lock(c.mutex);
  while (c.done != n) c.all_done.Wait(c.mutex);
}

ThreadPool& ComputePool() {
  // Leaked on purpose: workers may still be parked at exit, and joining
  // them from a static destructor would race other teardown.
  static ThreadPool* const pool = new ThreadPool(HardwareThreads());
  return *pool;
}

}  // namespace util
}  // namespace tecore

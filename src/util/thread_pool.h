// Fixed-size thread pool for embarrassingly parallel sweeps.
//
// The provisioning analysis (Section 6.3 of the paper) evaluates an
// all-pairs shortest-path objective for every candidate link — thousands of
// independent Dijkstra sweeps. ParallelFor spreads those across hardware
// threads; everything else in the library is single-threaded by design.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace riskroute::util {

/// Minimal work-queue thread pool. Tasks are std::function<void()>; use
/// Submit for futures or ParallelFor for index ranges.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  [[nodiscard]] auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    std::size_t queued = 0;
    {
      std::lock_guard lock(mutex_);
      queue_.emplace([task] { (*task)(); });
      queued = queue_.size();
    }
    NoteSubmit(queued);
    cv_.notify_one();
    return result;
  }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void WorkerLoop();
  /// Metrics hook for Submit (task count + peak queue depth `queued`).
  static void NoteSubmit(std::size_t queued);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) across the pool, blocking until all
/// iterations complete. Runs the loop on the calling thread, in index
/// order, when `pool` is null, has one worker, or count <= 1. Every
/// iteration runs; the first exception caught is rethrown afterwards
/// (on the calling thread, the one at the lowest index).
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace riskroute::util

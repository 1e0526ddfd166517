#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.h"

namespace riskroute::util {
namespace {

/// Pool metrics — all volatile: task counts, queue depth, and latencies
/// depend on thread count and scheduling by nature.
struct PoolMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& tasks =
      reg.GetCounter("util.thread_pool.tasks", obs::Stability::kVolatile);
  obs::Gauge& queue_depth_peak = reg.GetGauge("util.thread_pool.queue_depth_peak",
                                              obs::Stability::kVolatile);
  obs::Gauge& workers =
      reg.GetGauge("util.thread_pool.workers", obs::Stability::kVolatile);
  obs::Histogram& task_ns = reg.GetTiming("util.thread_pool.task_ns");
  obs::Histogram& busy_ns = reg.GetTiming("util.thread_pool.worker_busy_ns");

  static PoolMetrics& Get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

void ThreadPool::NoteSubmit(std::size_t queued) {
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.tasks.Add(1);
  metrics.queue_depth_peak.SetMax(static_cast<std::int64_t>(queued));
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  PoolMetrics::Get().workers.Set(static_cast<std::int64_t>(threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  PoolMetrics& metrics = PoolMetrics::Get();
  std::uint64_t busy_ns = 0;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) break;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    const std::uint64_t t0 = obs::Enabled() ? obs::detail::NowNs() : 0;
    task();
    if (t0 != 0) {
      const std::uint64_t elapsed = obs::detail::NowNs() - t0;
      metrics.task_ns.Record(elapsed);
      busy_ns += elapsed;
    }
  }
  // Per-worker busy time, recorded once at shutdown.
  if (busy_ns != 0) metrics.busy_ns.Record(busy_ns);
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  std::exception_ptr first_error;
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  const std::size_t workers = std::min(count, pool->thread_count());
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool->Submit([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace riskroute::util

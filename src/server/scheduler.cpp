#include "server/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace riskroute::server {
namespace {

/// Scheduler metric handles, resolved once. All volatile: queue depth and
/// rejection counts depend on arrival timing, not algorithmic work.
struct Metrics {
  obs::Counter& submitted;
  obs::Counter& rejected_full;
  obs::Counter& executed;
  obs::Counter& expired;
  obs::Counter& cancelled;
  obs::Gauge& queue_depth_peak;

  static Metrics& Get() {
    static Metrics metrics{
        obs::MetricsRegistry::Global().GetCounter(
            "server.scheduler.submitted", obs::Stability::kVolatile),
        obs::MetricsRegistry::Global().GetCounter(
            "server.scheduler.rejected_full", obs::Stability::kVolatile),
        obs::MetricsRegistry::Global().GetCounter(
            "server.scheduler.executed", obs::Stability::kVolatile),
        obs::MetricsRegistry::Global().GetCounter(
            "server.scheduler.expired", obs::Stability::kVolatile),
        obs::MetricsRegistry::Global().GetCounter(
            "server.scheduler.cancelled", obs::Stability::kVolatile),
        obs::MetricsRegistry::Global().GetGauge(
            "server.scheduler.queue_depth_peak", obs::Stability::kVolatile),
    };
    return metrics;
  }
};

}  // namespace

RequestScheduler::RequestScheduler(const SchedulerOptions& options)
    : slots_(std::max<std::size_t>(1, options.workers)),
      capacity_(options.queue_capacity) {}

RequestScheduler::Ticket RequestScheduler::Enter(Clock::time_point deadline) {
  Metrics& metrics = Metrics::Get();
  std::unique_lock lock(mutex_);
  if (stopping_) return Ticket(*this, Admit::kStopped);
  const bool must_wait = running_ >= slots_ || !line_.empty();
  if (must_wait && line_.size() >= capacity_) {
    metrics.rejected_full.Add();
    return Ticket(*this, Admit::kQueueFull);
  }
  metrics.submitted.Add();
  if (must_wait) {
    const std::uint64_t me = next_arrival_++;
    line_.push_back(me);
    metrics.queue_depth_peak.SetMax(static_cast<std::int64_t>(line_.size()));
    const auto admissible = [&] {
      return stopping_ || (running_ < slots_ && line_.front() == me);
    };
    bool admitted = true;
    if (deadline == Clock::time_point::max()) {
      cv_.wait(lock, admissible);  // wait_until(max) may overflow a clock cast
    } else {
      admitted = cv_.wait_until(lock, deadline, admissible);
    }
    line_.erase(std::find(line_.begin(), line_.end(), me));
    cv_.notify_all();  // the next waiter may now be at the head
    if (stopping_) {
      metrics.cancelled.Add();
      return Ticket(*this, Admit::kStopped);
    }
    if (!admitted) {
      metrics.expired.Add();
      return Ticket(*this, Admit::kExpired);
    }
  }
  ++running_;
  metrics.executed.Add();
  return Ticket(*this, Admit::kRun);
}

void RequestScheduler::Leave() {
  {
    std::lock_guard lock(mutex_);
    --running_;
  }
  cv_.notify_all();
}

void RequestScheduler::Stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestScheduler::waiting() const {
  std::lock_guard lock(mutex_);
  return line_.size();
}

}  // namespace riskroute::server

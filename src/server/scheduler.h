// Admission gate with backpressure for riskroute_serverd.
//
// Each connection thread executes its own requests; the gate bounds how
// many execute at once. A request runs immediately when a slot is free
// and nobody is waiting; otherwise it waits in FIFO order, so requests
// are admitted in arrival order. The wait line is bounded: an entry
// against a full line is rejected immediately (the connection replies
// Status::kOverloaded) instead of growing an unbounded backlog — the
// reject-with-status backpressure contract. A waiter whose deadline
// passes leaves at its deadline without executing (kDeadlineExceeded).
// Stop() releases every waiter (kShuttingDown) and refuses later
// entries; requests already running finish.
//
// Metrics (all volatile — queue occupancy depends on arrival timing):
// server.scheduler.{submitted,rejected_full,executed,expired,cancelled}
// counters and the server.scheduler.queue_depth_peak gauge, which counts
// only requests that actually waited.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

namespace riskroute::server {

struct SchedulerOptions {
  /// Requests executing at once. At least 1.
  std::size_t workers = 1;
  /// Requests allowed to wait for a slot. 0 means a request is only
  /// admitted when a slot is free.
  std::size_t queue_capacity = 64;
};

class RequestScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Admit {
    kRun,        // a slot is held until the Ticket is destroyed
    kQueueFull,  // reply kOverloaded
    kExpired,    // the deadline passed while waiting; reply kDeadlineExceeded
    kStopped,    // reply kShuttingDown
  };

  /// The outcome of Enter(). A kRun ticket holds an execution slot and
  /// releases it on destruction, so no exception path can leak one.
  class [[nodiscard]] Ticket {
   public:
    ~Ticket() {
      if (admit_ == Admit::kRun) gate_.Leave();
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    [[nodiscard]] Admit admit() const { return admit_; }

   private:
    friend class RequestScheduler;
    Ticket(RequestScheduler& gate, Admit admit) : gate_(gate), admit_(admit) {}

    RequestScheduler& gate_;
    const Admit admit_;
  };

  explicit RequestScheduler(const SchedulerOptions& options);
  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Blocks until the request may run, its `deadline` passes, or Stop().
  /// Never blocks when the line is full. `deadline` of
  /// Clock::time_point::max() means none.
  [[nodiscard]] Ticket Enter(Clock::time_point deadline);

  /// Releases every waiter with kStopped and refuses later entries.
  /// Idempotent; does not wait for running requests.
  void Stop();

  /// Requests currently waiting for a slot.
  [[nodiscard]] std::size_t waiting() const;

 private:
  void Leave();

  const std::size_t slots_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Arrival numbers of the waiters, oldest first.
  std::deque<std::uint64_t> line_;
  std::uint64_t next_arrival_ = 0;
  std::size_t running_ = 0;
  bool stopping_ = false;
};

}  // namespace riskroute::server

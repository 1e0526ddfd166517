// riskroute_serverd: the persistent query daemon.
//
// A Server boots with a const api::Service& (the frozen engine is loaded
// once, typically from an engine snapshot) and then answers wire-protocol
// requests over a Unix-domain socket, a TCP loopback socket, or both. The
// accept loop hands each connection to its own thread; a connection reads
// frames through wire::FrameAssembler, decodes them with the defensive
// wire limits, and executes each request on its own thread once the
// RequestScheduler admission gate lets it in — a full wait line replies
// kOverloaded immediately, a waiter whose deadline lapses replies
// kDeadlineExceeded without executing, and waiters still in line at
// shutdown reply kShuttingDown. Requests on one connection are answered
// strictly in order; concurrency comes from multiple connections, at most
// `scheduler.workers` of them executing at once. The accept loop joins
// finished connection threads as new connections arrive.
//
// Lifecycle: Start() binds and spawns the accept thread; WaitFor() lets a
// driver poll for a wire-initiated shutdown (a kShutdownRequest frame)
// while watching its own signals; Stop() tears everything down and is
// idempotent. The destructor calls Stop().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "server/scheduler.h"
#include "server/wire.h"

namespace riskroute::server {

struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener. The path is
  /// unlinked on bind (stale socket files) and again on Stop().
  std::string unix_path;
  /// TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral (read
  /// the bound port back with tcp_port()).
  int tcp_port = -1;
  SchedulerOptions scheduler;
  wire::WireLimits limits;
  /// Honor wire kShutdownRequest frames (ops convenience; tests).
  bool allow_remote_shutdown = true;
};

class Server {
 public:
  /// `service` must outlive the server.
  Server(const api::Service& service, const ServerOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts accepting. Throws
  /// util-style IoError when neither listener is configured or a bind
  /// fails.
  void Start();

  /// Waits up to `timeout` for a stop request (wire shutdown frame or a
  /// concurrent Stop()); returns true when one arrived. Poll this from
  /// the serving driver so process signals stay responsive.
  [[nodiscard]] bool WaitFor(std::chrono::milliseconds timeout);

  /// Stops accepting, severs open connections, releases the requests
  /// waiting at the gate, joins every thread. Idempotent.
  void Stop();

  /// The TCP port actually bound (resolves port 0); -1 without TCP.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const {
    return options_.unix_path;
  }
  /// Requests answered so far (any status).
  [[nodiscard]] std::size_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    bool done = false;  // set by the connection thread as it exits
  };

  void AcceptLoop(int listen_fd);
  void ServeConnection(Connection& connection);
  /// Decodes + executes one request frame; writes the reply. Returns
  /// false when the connection must close (protocol error, send failure,
  /// or a shutdown frame).
  bool ServeFrame(int fd, const wire::Frame& frame);
  bool SendReply(int fd, std::uint64_t id, wire::Status status,
                 std::string_view body);
  void RequestStop();

  const api::Service& service_;
  ServerOptions options_;
  RequestScheduler scheduler_;

  std::vector<int> listen_fds_;
  int bound_tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;

  std::mutex conn_mutex_;
  /// Live connections; list nodes stay put while their threads run.
  std::list<Connection> connections_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> requests_served_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool started_ = false;
};

}  // namespace riskroute::server

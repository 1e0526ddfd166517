#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/handlers.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::server {
namespace {

/// errno rendered for an IoError message.
std::string Errno(const char* op) {
  return util::Format("%s failed: %s", op, std::strerror(errno));
}

int ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgument(util::Format(
        "unix socket path is %zu bytes; the OS limit is %zu", path.size(),
        sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(Errno("socket(AF_UNIX)"));
  ::unlink(path.c_str());  // stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string detail = Errno("bind/listen");
    ::close(fd);
    throw IoError("unix socket " + path + ": " + detail);
  }
  return fd;
}

int ListenTcp(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(Errno("socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string detail = Errno("bind/listen");
    ::close(fd);
    throw IoError(util::Format("tcp 127.0.0.1:%d: %s", port, detail.c_str()));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

bool SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(const api::Service& service, const ServerOptions& options)
    : service_(service), options_(options), scheduler_(options.scheduler) {}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_) throw InternalError("Server::Start called twice");
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw InvalidArgument("server needs a unix path or a tcp port");
  }
  if (!options_.unix_path.empty()) {
    listen_fds_.push_back(ListenUnix(options_.unix_path));
  }
  if (options_.tcp_port >= 0) {
    listen_fds_.push_back(ListenTcp(options_.tcp_port, bound_tcp_port_));
  }
  started_ = true;
  accept_threads_.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
}

bool Server::WaitFor(std::chrono::milliseconds timeout) {
  std::unique_lock lock(stop_mutex_);
  stop_cv_.wait_for(lock, timeout, [this] { return stop_requested_; });
  return stop_requested_;
}

void Server::RequestStop() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the first Stop() owns the teardown; nothing to do
    // beyond making sure waiters wake.
    RequestStop();
    return;
  }
  RequestStop();

  // 1. Stop accepting: shutdown() wakes a blocked accept(), then close.
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (std::thread& thread : accept_threads_) {
    if (thread.joinable()) thread.join();
  }
  accept_threads_.clear();
  listen_fds_.clear();

  // 2. Sever live connections so their threads fall out of recv().
  std::list<Connection> connections;
  {
    std::lock_guard lock(conn_mutex_);
    for (const Connection& connection : connections_) {
      if (!connection.done) ::shutdown(connection.fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }

  // 3. Release the requests waiting at the gate (each replies
  //    kShuttingDown to a severed connection; the sends fail harmlessly).
  //    This must precede the joins: a waiter does not watch its socket.
  scheduler_.Stop();

  // 4. Join the connection threads; requests already running finish.
  for (Connection& connection : connections) connection.thread.join();

  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or unrecoverable
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    std::lock_guard lock(conn_mutex_);
    // Reap finished connections so a long-lived daemon holds one thread
    // per open connection, not one per connection ever accepted. A done
    // thread never takes this lock again, so the join cannot deadlock.
    connections_.remove_if([](Connection& connection) {
      if (connection.done) connection.thread.join();
      return connection.done;
    });
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread =
        std::thread([this, &connection] { ServeConnection(connection); });
  }
}

void Server::ServeConnection(Connection& connection) {
  const int fd = connection.fd;
  wire::FrameAssembler assembler(options_.limits);
  char buffer[16 * 1024];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or connection severed
    assembler.Append(buffer, static_cast<std::size_t>(n));
    for (;;) {
      auto polled = assembler.Poll();
      if (!polled.ok()) {
        // Framing is desynchronized: report once (id 0 — the original id
        // is unrecoverable) and drop the connection.
        SendReply(fd, 0, wire::Status::kBadRequest,
                  polled.error().Render() + "\n");
        open = false;
        break;
      }
      if (!polled.value().has_value()) break;  // need more bytes
      if (!ServeFrame(fd, *polled.value())) {
        open = false;
        break;
      }
    }
  }
  {
    // Once `done` is set Stop() leaves this fd alone, so closing it (and
    // reuse of the fd number) cannot race a shutdown(). `connection` may
    // be reaped from here on.
    std::lock_guard lock(conn_mutex_);
    connection.done = true;
  }
  ::close(fd);
}

bool Server::ServeFrame(int fd, const wire::Frame& frame) {
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(frame.payload.data()),
      frame.payload.size());
  auto decoded =
      wire::DecodeRequestPayload(frame.header, payload, options_.limits);
  if (!decoded.ok()) {
    // The frame boundary was sound, only this payload is bad; the
    // connection may continue.
    return SendReply(fd, frame.header.id, wire::Status::kBadRequest,
                     decoded.error().Render() + "\n");
  }
  const wire::Request& request = decoded.value();

  if (request.kind == wire::FrameKind::kShutdownRequest) {
    if (!options_.allow_remote_shutdown) {
      return SendReply(fd, request.id, wire::Status::kBadRequest,
                       "remote shutdown is disabled\n");
    }
    SendReply(fd, request.id, wire::Status::kOk, "shutting down\n");
    RequestStop();
    return false;
  }

  const auto deadline =
      request.deadline_ms > 0
          ? RequestScheduler::Clock::now() +
                std::chrono::milliseconds(request.deadline_ms)
          : RequestScheduler::Clock::time_point::max();
  std::pair<wire::Status, std::string> reply;
  {
    const RequestScheduler::Ticket ticket = scheduler_.Enter(deadline);
    switch (ticket.admit()) {
      case RequestScheduler::Admit::kRun:
        reply = HandleRequest(service_, request);
        break;
      case RequestScheduler::Admit::kQueueFull:
        reply = {wire::Status::kOverloaded, "server queue is full\n"};
        break;
      case RequestScheduler::Admit::kExpired:
        reply = {wire::Status::kDeadlineExceeded, "deadline exceeded\n"};
        break;
      case RequestScheduler::Admit::kStopped:
        reply = {wire::Status::kShuttingDown, "server shutting down\n"};
        break;
    }
  }  // the slot is free before the reply is sent
  return SendReply(fd, request.id, reply.first, reply.second);
}

bool Server::SendReply(int fd, std::uint64_t id, wire::Status status,
                       std::string_view body) {
  const std::string frame = wire::EncodeResponse(id, status, body);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return SendAll(fd, frame.data(), frame.size());
}

}  // namespace riskroute::server

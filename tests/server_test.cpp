// riskroute_serverd tests: wire codec, admission gate, and the full
// loopback client/server stack. The headline assertion is the serverd
// correctness contract — a served kOk body is byte-identical to the
// api::Service body (and hence to the CLI's stdout) for the same request
// against the same engine.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "server/client.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/wire.h"
#include "tests/graph_fixtures.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

namespace wire = server::wire;
using core::RiskGraph;
using core::RiskParams;
using core::RouteEngine;
using fixtures::SampleGraph;

constexpr RiskParams kParams{1e5, 1e3};

/// Short unique unix socket path (sun_path is ~108 bytes; stay in /tmp).
std::string TestSocketPath(int n) {
  return "/tmp/riskroute_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(n) + ".sock";
}

// --- Wire codec ---

TEST(WireTest, RequestRoundTripsAllKinds) {
  std::vector<wire::Request> requests;
  wire::Request route;
  route.kind = wire::FrameKind::kRouteRequest;
  route.id = 42;
  route.deadline_ms = 1500;
  route.route.from = "pop-1";
  route.route.to = "pop-2";
  requests.push_back(route);
  wire::Request ratios;
  ratios.kind = wire::FrameKind::kRatiosRequest;
  ratios.ratios.label = "parity";
  requests.push_back(ratios);
  wire::Request ensemble;
  ensemble.kind = wire::FrameKind::kEnsembleRequest;
  ensemble.ensemble.scenarios = 64;
  ensemble.ensemble.seed = 99;
  ensemble.ensemble.month = 9;
  ensemble.ensemble.top = 3;
  ensemble.ensemble.json = true;
  requests.push_back(ensemble);
  wire::Request triage;
  triage.kind = wire::FrameKind::kEnsembleTriageRequest;
  triage.ensemble.scenarios = 100'000;
  triage.ensemble.seed = 2026;
  triage.ensemble.month = 8;
  triage.ensemble.top = 5;
  triage.ensemble.json = true;
  triage.ensemble.triage = true;  // decoder sets this; canonical re-encode
  triage.ensemble.pilot = 96;
  triage.ensemble.audit_stride = 1024;
  triage.ensemble.base_rate_ppm = 10'000;
  requests.push_back(triage);
  wire::Request provision;
  provision.kind = wire::FrameKind::kProvisionRequest;
  provision.provision.links = 7;
  requests.push_back(provision);
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  ping.ping_delay_ms = 25;
  requests.push_back(ping);
  wire::Request shutdown;
  shutdown.kind = wire::FrameKind::kShutdownRequest;
  requests.push_back(shutdown);

  const wire::WireLimits limits;
  for (const wire::Request& request : requests) {
    const std::string encoded = wire::EncodeRequest(request);
    const auto frame = wire::DecodeSingleFrame(
        {reinterpret_cast<const std::uint8_t*>(encoded.data()),
         encoded.size()},
        limits);
    ASSERT_TRUE(frame.ok()) << frame.error().Render();
    const auto decoded = wire::DecodeRequestPayload(
        frame.value().header,
        {reinterpret_cast<const std::uint8_t*>(frame.value().payload.data()),
         frame.value().payload.size()},
        limits);
    ASSERT_TRUE(decoded.ok()) << decoded.error().Render();
    // Canonical: re-encoding reproduces the original bytes.
    EXPECT_EQ(wire::EncodeRequest(decoded.value()), encoded);
  }
}

TEST(WireTest, ResponseRoundTrips) {
  const std::string encoded =
      wire::EncodeResponse(77, wire::Status::kOverloaded, "queue full\n");
  const auto frame = wire::DecodeSingleFrame(
      {reinterpret_cast<const std::uint8_t*>(encoded.data()), encoded.size()},
      wire::ResponseLimits());
  ASSERT_TRUE(frame.ok());
  const auto decoded = wire::DecodeResponsePayload(
      frame.value().header,
      {reinterpret_cast<const std::uint8_t*>(frame.value().payload.data()),
       frame.value().payload.size()},
      wire::ResponseLimits());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 77u);
  EXPECT_EQ(decoded.value().status, wire::Status::kOverloaded);
  EXPECT_EQ(decoded.value().body, "queue full\n");
}

TEST(WireTest, HostileFramesRejectWithDiagnostics) {
  const wire::WireLimits limits;
  const auto decode = [&](std::string bytes) {
    return wire::DecodeSingleFrame(
        {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
        limits);
  };
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  const std::string valid = wire::EncodeRequest(ping);

  // Truncated header.
  EXPECT_FALSE(decode(valid.substr(0, 10)).ok());
  // Bad magic.
  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode(bad_magic).ok());
  // Unsupported version.
  std::string bad_version = valid;
  bad_version[4] = '\x09';
  EXPECT_FALSE(decode(bad_version).ok());
  // Oversized declared payload length.
  std::string oversized = valid;
  oversized[16] = '\xff';
  oversized[17] = '\xff';
  oversized[18] = '\xff';
  oversized[19] = '\x0f';
  const auto oversized_result = decode(oversized);
  ASSERT_FALSE(oversized_result.ok());
  EXPECT_EQ(oversized_result.error().kind,
            util::ParseErrorKind::kLimitExceeded);
  // Trailing garbage after a complete frame.
  EXPECT_FALSE(decode(valid + "ZZ").ok());
  // Every reject explains itself.
  EXPECT_FALSE(decode(valid.substr(0, 10)).error().message.empty());
}

// Kind 8 carries the triage knobs after the kind-3 fields; each knob has
// its own domain and the payload must be exactly consumed. The encoder is
// deliberately non-validating (canonical bytes for whatever it is handed),
// so hostile values are produced by encoding them directly.
TEST(WireTest, EnsembleTriagePayloadValidation) {
  const wire::WireLimits limits;
  wire::Request valid;
  valid.kind = wire::FrameKind::kEnsembleTriageRequest;
  valid.ensemble.scenarios = 4096;
  valid.ensemble.seed = 7;
  valid.ensemble.month = 9;
  valid.ensemble.top = 4;
  valid.ensemble.triage = true;
  valid.ensemble.pilot = 48;
  valid.ensemble.audit_stride = 256;
  valid.ensemble.base_rate_ppm = 250'000;

  // Decode the payload of an encoded request, optionally resized.
  const auto decode = [&](const wire::Request& request,
                          int payload_delta = 0) {
    std::string encoded = wire::EncodeRequest(request);
    if (payload_delta > 0) {
      encoded.append(static_cast<std::size_t>(payload_delta), '\x00');
      // Patch the declared payload length to cover the trailing bytes.
      const std::uint32_t len = static_cast<std::uint32_t>(
          encoded.size() - wire::kFrameHeaderBytes);
      encoded[16] = static_cast<char>(len & 0xff);
      encoded[17] = static_cast<char>((len >> 8) & 0xff);
      encoded[18] = static_cast<char>((len >> 16) & 0xff);
      encoded[19] = static_cast<char>((len >> 24) & 0xff);
    }
    const auto frame = wire::DecodeSingleFrame(
        {reinterpret_cast<const std::uint8_t*>(encoded.data()),
         encoded.size()},
        limits);
    if (!frame.ok()) return wire::DecodeRequestPayload(wire::FrameHeader{},
                                                       {}, limits);
    std::span<const std::uint8_t> payload{
        reinterpret_cast<const std::uint8_t*>(frame.value().payload.data()),
        frame.value().payload.size()};
    if (payload_delta < 0) {
      payload = payload.subspan(
          0, payload.size() - static_cast<std::size_t>(-payload_delta));
    }
    return wire::DecodeRequestPayload(frame.value().header, payload, limits);
  };

  ASSERT_TRUE(decode(valid).ok()) << decode(valid).error().Render();

  const auto mutate = [&](auto&& fn) {
    wire::Request request = valid;
    fn(request);
    return request;
  };
  // pilot must be in [1, max_scenarios].
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.pilot = 0;
               })).ok());
  EXPECT_FALSE(decode(mutate([&](wire::Request& r) {
                 r.ensemble.pilot = limits.max_scenarios + 1u;
               })).ok());
  // audit_stride must be in [1, max_audit_stride].
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.audit_stride = 0;
               })).ok());
  EXPECT_FALSE(decode(mutate([&](wire::Request& r) {
                 r.ensemble.audit_stride = limits.max_audit_stride + 1u;
               })).ok());
  // base_rate_ppm must be in [1, 1000000] — a zero keep rate samples
  // nothing and anything over 1.0 is not a probability.
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.base_rate_ppm = 0;
               })).ok());
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.base_rate_ppm = 1'000'001;
               })).ok());
  // The kind-3 domain checks still apply to the shared prefix.
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.scenarios = 0;
               })).ok());
  EXPECT_FALSE(decode(mutate([](wire::Request& r) {
                 r.ensemble.month = 13;
               })).ok());
  // Truncated and oversized payloads reject (exact consumption).
  for (int delta : {-1, -4, 1, 3}) {
    const auto result = decode(valid, delta);
    EXPECT_FALSE(result.ok()) << "delta " << delta;
    EXPECT_FALSE(result.error().message.empty());
  }
  // Rejects carry a diagnostic.
  EXPECT_FALSE(
      decode(mutate([](wire::Request& r) { r.ensemble.pilot = 0; }))
          .error()
          .message.empty());
}

TEST(WireTest, AssemblerReassemblesByteDribble) {
  wire::Request ratios;
  ratios.kind = wire::FrameKind::kRatiosRequest;
  ratios.id = 5;
  ratios.ratios.label = "drip";
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  ping.id = 6;
  const std::string stream =
      wire::EncodeRequest(ratios) + wire::EncodeRequest(ping);

  wire::FrameAssembler assembler{wire::WireLimits{}};
  std::vector<wire::Frame> frames;
  for (char byte : stream) {
    assembler.Append(&byte, 1);
    for (;;) {
      auto polled = assembler.Poll();
      ASSERT_TRUE(polled.ok()) << polled.error().Render();
      if (!polled.value().has_value()) break;
      frames.push_back(std::move(*polled.value()));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.id, 5u);
  EXPECT_EQ(frames[1].header.id, 6u);
  EXPECT_EQ(assembler.buffered(), 0u);
}

// --- Admission gate ---

using Gate = server::RequestScheduler;
constexpr Gate::Clock::time_point kNoDeadline = Gate::Clock::time_point::max();

/// Spins until `gate` has `n` requests waiting for a slot.
void AwaitWaiting(const Gate& gate, std::size_t n) {
  while (gate.waiting() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SchedulerTest, ZeroCapacityAcceptsOnlyWhenWorkerIdle) {
  server::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 0;
  Gate gate(options);
  {
    const Gate::Ticket running = gate.Enter(kNoDeadline);
    ASSERT_EQ(running.admit(), Gate::Admit::kRun);
    // The only slot is taken and nobody may wait: bounce at once.
    EXPECT_EQ(gate.Enter(kNoDeadline).admit(), Gate::Admit::kQueueFull);
    EXPECT_EQ(gate.waiting(), 0u);
  }
  // The ticket released its slot.
  EXPECT_EQ(gate.Enter(kNoDeadline).admit(), Gate::Admit::kRun);
}

TEST(SchedulerTest, ExpiredDeadlineSkipsExecution) {
  server::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  Gate gate(options);
  const Gate::Ticket running = gate.Enter(kNoDeadline);
  ASSERT_EQ(running.admit(), Gate::Admit::kRun);

  // The waiter leaves at its own deadline, while the slot is still held.
  const auto deadline = Gate::Clock::now() + std::chrono::milliseconds(30);
  const Gate::Ticket late = gate.Enter(deadline);
  EXPECT_EQ(late.admit(), Gate::Admit::kExpired);
  EXPECT_GE(Gate::Clock::now(), deadline);
  EXPECT_EQ(gate.waiting(), 0u);
}

TEST(SchedulerTest, StopCancelsQueuedTasks) {
  server::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  Gate gate(options);
  const Gate::Ticket running = gate.Enter(kNoDeadline);
  ASSERT_EQ(running.admit(), Gate::Admit::kRun);

  std::atomic<int> stopped{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      if (gate.Enter(kNoDeadline).admit() == Gate::Admit::kStopped) ++stopped;
    });
  }
  AwaitWaiting(gate, 3);
  gate.Stop();  // the slot is still held: only Stop() can release them
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(stopped.load(), 3);
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_EQ(gate.Enter(kNoDeadline).admit(), Gate::Admit::kStopped);
}

TEST(SchedulerTest, WaitersAreAdmittedInArrivalOrder) {
  server::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  Gate gate(options);
  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  {
    const Gate::Ticket running = gate.Enter(kNoDeadline);
    ASSERT_EQ(running.admit(), Gate::Admit::kRun);
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&, i] {
        const Gate::Ticket ticket = gate.Enter(kNoDeadline);
        ASSERT_EQ(ticket.admit(), Gate::Admit::kRun);
        std::lock_guard lock(order_mutex);
        order.push_back(i);
      });
      AwaitWaiting(gate, static_cast<std::size_t>(i) + 1);
    }
  }
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- Loopback client/server ---

class ServerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 20;

  api::Service MakeService(util::ThreadPool* pool) const {
    api::ServiceOptions options;
    options.pool = pool;
    return api::Service(RouteEngine(SampleGraph(kNodes, 11), kParams),
                        options);
  }
};

TEST_F(ServerTest, ServedBodiesAreByteIdenticalToServiceAcrossPoolSizes) {
  int socket_n = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const api::Service service = MakeService(&pool);

    server::ServerOptions options;
    options.unix_path = TestSocketPath(socket_n++);
    options.scheduler.workers = 2;
    server::Server daemon(service, options);
    daemon.Start();
    server::Client client = server::Client::ConnectUnix(options.unix_path);

    wire::Request route;
    route.kind = wire::FrameKind::kRouteRequest;
    route.route.from = "pop-0";
    route.route.to = "pop-" + std::to_string(kNodes - 1);
    const auto route_reply = client.Call(route);
    EXPECT_EQ(route_reply.status, wire::Status::kOk);
    EXPECT_EQ(route_reply.body, service.Route(route.route).body);

    wire::Request ratios;
    ratios.kind = wire::FrameKind::kRatiosRequest;
    ratios.ratios.label = "loopback";
    const auto ratios_reply = client.Call(ratios);
    EXPECT_EQ(ratios_reply.status, wire::Status::kOk);
    EXPECT_EQ(ratios_reply.body, service.Ratios(ratios.ratios).body);

    wire::Request ensemble;
    ensemble.kind = wire::FrameKind::kEnsembleRequest;
    ensemble.ensemble.scenarios = 12;
    ensemble.ensemble.top = 3;
    ensemble.ensemble.json = true;
    const auto ensemble_reply = client.Call(ensemble);
    EXPECT_EQ(ensemble_reply.status, wire::Status::kOk);
    EXPECT_EQ(ensemble_reply.body, service.Ensemble(ensemble.ensemble).body);

    wire::Request provision;
    provision.kind = wire::FrameKind::kProvisionRequest;
    provision.provision.links = 1;
    const auto provision_reply = client.Call(provision);
    EXPECT_EQ(provision_reply.status, wire::Status::kOk);
    EXPECT_EQ(provision_reply.body,
              service.Provision(provision.provision).body);

    daemon.Stop();
  }
}

/// Threads in this process: the entries of /proc/self/task.
std::size_t ThreadCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// This process's virtual memory size in kB (VmSize of /proc/self/status).
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

TEST_F(ServerTest, StartSpawnsOnlyTheAcceptThread) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(16);
  options.scheduler.workers = 4;
  const std::size_t before = ThreadCount();
  server::Server daemon(service, options);
  daemon.Start();
  // Requests execute on their connection threads; `workers` only bounds
  // how many at once.
  EXPECT_EQ(ThreadCount(), before + 1);
  daemon.Stop();
}

TEST_F(ServerTest, FinishedConnectionThreadsAreReaped) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(17);
  server::Server daemon(service, options);
  daemon.Start();
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  const auto ping_once = [&] {
    server::Client client = server::Client::ConnectUnix(options.unix_path);
    EXPECT_EQ(client.Call(ping).status, wire::Status::kOk);
  };
  // Warm-up: the first connections grow allocator arenas later ones reuse.
  for (int i = 0; i < 8; ++i) ping_once();
  const long before = VmSizeKb();
  for (int i = 0; i < 64; ++i) ping_once();
  // An exited but unjoined thread keeps its ~8 MB stack mapped, so 64
  // unreaped connections would grow the address space by ~0.5 GB.
  EXPECT_LT(VmSizeKb() - before, 128 * 1024);
  daemon.Stop();
}

TEST_F(ServerTest, TcpLoopbackServesEphemeralPort) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  server::Server daemon(service, options);
  daemon.Start();
  ASSERT_GT(daemon.tcp_port(), 0);

  server::Client client =
      server::Client::ConnectTcp("127.0.0.1", daemon.tcp_port());
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  const auto reply = client.Call(ping);
  EXPECT_EQ(reply.status, wire::Status::kOk);
  EXPECT_EQ(reply.body, "pong\n");
  daemon.Stop();
}

TEST_F(ServerTest, UnknownPopAnswersBadRequestAndKeepsConnection) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(10);
  server::Server daemon(service, options);
  daemon.Start();
  server::Client client = server::Client::ConnectUnix(options.unix_path);

  wire::Request route;
  route.kind = wire::FrameKind::kRouteRequest;
  route.route.from = "Atlantis, XX";
  route.route.to = "pop-1";
  const auto reply = client.Call(route);
  EXPECT_EQ(reply.status, wire::Status::kBadRequest);
  EXPECT_EQ(reply.body, "no PoP named 'Atlantis, XX' in this network\n");

  // The connection survives a bad request.
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  EXPECT_EQ(client.Call(ping).status, wire::Status::kOk);
  daemon.Stop();
}

TEST_F(ServerTest, QueueFullAnswersOverloaded) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(11);
  options.scheduler.workers = 1;
  options.scheduler.queue_capacity = 0;  // accept only when worker idle
  server::Server daemon(service, options);
  daemon.Start();

  // Connection A occupies the single worker with a slow ping.
  server::Client slow = server::Client::ConnectUnix(options.unix_path);
  std::thread slow_call([&slow] {
    wire::Request ping;
    ping.kind = wire::FrameKind::kPingRequest;
    ping.ping_delay_ms = 400;
    EXPECT_EQ(slow.Call(ping).status, wire::Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Connection B submits while the worker is busy and the queue is full.
  server::Client fast = server::Client::ConnectUnix(options.unix_path);
  wire::Request route;
  route.kind = wire::FrameKind::kRouteRequest;
  route.route.from = "pop-0";
  route.route.to = "pop-1";
  const auto reply = fast.Call(route);
  EXPECT_EQ(reply.status, wire::Status::kOverloaded);
  EXPECT_EQ(reply.body, "server queue is full\n");

  slow_call.join();
  daemon.Stop();
}

TEST_F(ServerTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(12);
  options.scheduler.workers = 1;
  options.scheduler.queue_capacity = 4;
  server::Server daemon(service, options);
  daemon.Start();

  server::Client slow = server::Client::ConnectUnix(options.unix_path);
  std::thread slow_call([&slow] {
    wire::Request ping;
    ping.kind = wire::FrameKind::kPingRequest;
    ping.ping_delay_ms = 400;
    EXPECT_EQ(slow.Call(ping).status, wire::Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  server::Client fast = server::Client::ConnectUnix(options.unix_path);
  wire::Request route;
  route.kind = wire::FrameKind::kRouteRequest;
  route.route.from = "pop-0";
  route.route.to = "pop-1";
  route.deadline_ms = 50;  // expires while queued behind the slow ping
  const auto reply = fast.Call(route);
  EXPECT_EQ(reply.status, wire::Status::kDeadlineExceeded);
  EXPECT_EQ(reply.body, "deadline exceeded\n");

  slow_call.join();
  daemon.Stop();
}

TEST_F(ServerTest, GarbageBytesAnswerBadRequestAndClose) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(13);
  server::Server daemon(service, options);
  daemon.Start();

  // Raw socket: a corrupted magic must draw a connection-level
  // kBadRequest reply with request id 0, then the server closes.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                options.unix_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  wire::Request ping;
  ping.kind = wire::FrameKind::kPingRequest;
  std::string bytes = wire::EncodeRequest(ping);
  bytes[0] = 'X';  // corrupt the magic
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  wire::FrameAssembler assembler{wire::ResponseLimits()};
  wire::Response reply;
  bool got_reply = false;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // server closed after replying
    assembler.Append(buffer, static_cast<std::size_t>(n));
    auto polled = assembler.Poll();
    ASSERT_TRUE(polled.ok()) << polled.error().Render();
    if (!polled.value().has_value()) continue;
    const wire::Frame& frame = *polled.value();
    const auto decoded = wire::DecodeResponsePayload(
        frame.header,
        {reinterpret_cast<const std::uint8_t*>(frame.payload.data()),
         frame.payload.size()},
        wire::ResponseLimits());
    ASSERT_TRUE(decoded.ok()) << decoded.error().Render();
    reply = decoded.value();
    got_reply = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_reply);
  EXPECT_EQ(reply.id, 0u);
  EXPECT_EQ(reply.status, wire::Status::kBadRequest);
  EXPECT_FALSE(reply.body.empty());
  daemon.Stop();
}

TEST_F(ServerTest, WireShutdownRequestStopsTheServer) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(14);
  server::Server daemon(service, options);
  daemon.Start();

  server::Client client = server::Client::ConnectUnix(options.unix_path);
  wire::Request shutdown;
  shutdown.kind = wire::FrameKind::kShutdownRequest;
  const auto reply = client.Call(shutdown);
  EXPECT_EQ(reply.status, wire::Status::kOk);
  EXPECT_EQ(reply.body, "shutting down\n");
  EXPECT_TRUE(daemon.WaitFor(std::chrono::seconds(5)));
  daemon.Stop();
  EXPECT_GE(daemon.requests_served(), 1u);
}

TEST_F(ServerTest, RemoteShutdownCanBeDisabled) {
  util::ThreadPool pool(1);
  const api::Service service = MakeService(&pool);
  server::ServerOptions options;
  options.unix_path = TestSocketPath(15);
  options.allow_remote_shutdown = false;
  server::Server daemon(service, options);
  daemon.Start();

  server::Client client = server::Client::ConnectUnix(options.unix_path);
  wire::Request shutdown;
  shutdown.kind = wire::FrameKind::kShutdownRequest;
  const auto reply = client.Call(shutdown);
  EXPECT_EQ(reply.status, wire::Status::kBadRequest);
  EXPECT_FALSE(daemon.WaitFor(std::chrono::milliseconds(50)));
  daemon.Stop();
}

}  // namespace
}  // namespace riskroute

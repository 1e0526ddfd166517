// serve_bench: the served end-to-end benchmark of riskroute_serverd.
//
// One run freezes a network, boots an in-process server::Server from the
// snapshot, and drives it over a Unix-domain socket with server::Client
// closed loops (one request in flight per connection) for a fixed time.
// Every served body is compared byte for byte with a direct library call
// on the same inputs. Workloads:
//
//   route_serve      kRouteRequest pairs on Level3 from the scale-7 study;
//                    2 connections, 2 scheduler workers.
//   storm_replay     Katrina/Irene/Sandy bulletins as kStreamAdvisory frames
//                    on paper-scale Level3; 1 connection, 1 worker.
//   ensemble_whatif  exact JSON kEnsembleRequests from four option sets on
//                    paper-scale Level3; 1 connection, 1 worker.
//
// A run is kRounds rounds of (full set-up, untraced timed pass); without
// --trace it reports the end-to-end metrics, each the median over rounds.
// With --trace it then makes a traced pass whose spans (see trace.h)
// split the served latency by layer, and reports the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. See README.md for the workload rationale and the metric map.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/service.h"
#include "core/route_engine.h"
#include "core/study.h"
#include "forecast/parser.h"
#include "forecast/streaming.h"
#include "hazard/synthesis.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sim/ensemble.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using namespace riskroute;
namespace wire = server::wire;

constexpr core::RiskParams kParams{1e5, 1e3};  // the CLI defaults
constexpr std::size_t kRoutePoolSize = 4096;     // distinct route requests
constexpr std::size_t kRouteWarmup = 64;         // per connection
constexpr std::size_t kStormTop = 3;
constexpr std::size_t kEnsembleScenarios = 16;
constexpr std::size_t kMaxTracedRequests = 10'000;  // per connection
// Each run is kRounds rounds of (full set-up, timed pass); see Run().
constexpr std::size_t kRounds = 3;

// ---------------------------------------------------------------------------
// Arguments and workload shapes.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string record;
  std::string spans;
  std::string commit = "unknown";
};

struct WorkloadSpec {
  std::string name;
  double corpus_scale = 1.0;
  std::size_t landmarks = 8;
  std::size_t connections = 1;
  std::size_t workers = 1;
};

WorkloadSpec SpecFor(const std::string& workload) {
  if (workload == "route_serve") return {workload, 7.0, 16, 2, 2};
  if (workload == "storm_replay") return {workload, 1.0, 8, 1, 1};
  if (workload == "ensemble_whatif") return {workload, 1.0, 8, 1, 1};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--record") {
      args.record = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// ---------------------------------------------------------------------------
// Metrics, in report order.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Peak resident set of the process so far, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The program's own obs counters, read before and after each timed pass.

struct RegistryReading {
  std::map<std::string, double> counters;
  std::map<std::string, double> peaks;
};

const char* const kVolatileCounters[] = {
    "server.scheduler.submitted", "server.scheduler.rejected_full",
    "server.scheduler.expired",   "server.scheduler.executed",
    "util.thread_pool.tasks",
};
const char* const kStableCounters[] = {
    "core.route_engine.sweeps",
    "core.route_engine.overlay_sweeps",
    "core.route_engine.heap_pops",
    "core.route_engine.relaxations",
    "core.route_engine.alt_sweeps",
    "stream.advisories",
    "stream.pairs.recomputed",
    "stream.cache.hits",
    "stream.scope.pops",
    "sim.ensemble.scenarios",
    "sim.ensemble.overlay_pair_sweeps",
    "sim.ensemble.skipped_pair_sweeps",
    "api.ensemble.engine_builds",
    "api.ensemble.engine_reuses",
    "stats.kde.point_evals",
    "stats.kde.batch_points",
};
const char* const kPeakGauges[] = {
    "server.scheduler.queue_depth_peak",
    "util.thread_pool.queue_depth_peak",
};

RegistryReading ReadRegistry() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  RegistryReading reading;
  for (const char* name : kVolatileCounters) {
    reading.counters[name] = static_cast<double>(
        reg.GetCounter(name, obs::Stability::kVolatile).Total());
  }
  for (const char* name : kStableCounters) {
    reading.counters[name] = static_cast<double>(reg.GetCounter(name).Total());
  }
  for (const char* name : kPeakGauges) {
    reading.peaks[name] = static_cast<double>(
        reg.GetGauge(name, obs::Stability::kVolatile).Value());
  }
  return reading;
}

/// Zeroes the peak gauges so the timed pass reports its own peaks.
void ResetPeakGauges() {
  for (const char* name : kPeakGauges) {
    obs::MetricsRegistry::Global()
        .GetGauge(name, obs::Stability::kVolatile)
        .Set(0);
  }
}

/// Counter deltas summed over one or more passes, and the highest peak
/// gauge reading among them.
class RegistryDelta {
 public:
  void Add(const RegistryReading& before, const RegistryReading& after) {
    for (const auto& [name, value] : after.counters) {
      values_[name] += value - before.counters.at(name);
    }
    for (const auto& [name, value] : after.peaks) {
      values_[name] = std::max(values_[name], value);
    }
  }
  [[nodiscard]] double operator[](const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Set-up: study build -> freeze -> snapshot save -> snapshot boot ->
// Server::Start -> warm-up, timed step by step.

struct Deployment {
  std::string snapshot_path;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<api::Service> service;
  std::unique_ptr<server::Server> server;
  std::vector<server::Client> clients;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    clients.clear();
    if (server) server->Stop();
    if (!snapshot_path.empty()) std::remove(snapshot_path.c_str());
  }
};

struct SetupTimes {
  double study_s = 0.0;
  double freeze_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
  double kde_point_evals = 0.0;
  double kde_batch_points = 0.0;
};

/// Outcome of one closed-loop pass (or of the warm-up calls).
struct PassResult {
  std::vector<double> latency_ns;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<std::string> errors;

  void Absorb(PassResult&& other) {
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
    attempted += other.attempted;
    failed += other.failed;
    for (auto& e : other.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
  /// Counts one checked reply; `describe` runs only on a failure.
  template <typename Describe>
  void Check(bool ok, Describe&& describe) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(describe());
  }
};

using Warmup = std::function<void(Deployment&, PassResult&)>;

double Seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

std::unique_ptr<Deployment> Setup(const WorkloadSpec& spec, const Args& args,
                                  std::size_t rep, const Warmup& warmup,
                                  SetupTimes& t, PassResult& tally,
                                  SpanLog& log) {
  const RegistryReading before = ReadRegistry();
  auto d = std::make_unique<Deployment>();
  const std::string stem = args.work_dir + "/" + spec.name + "-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(rep);
  d->snapshot_path = stem + ".rre";
  server::ServerOptions options;
  options.unix_path = stem + ".sock";
  options.scheduler.workers = spec.workers;

  const ScopedSpan root(&log, "setup", -1, 0);
  std::int64_t mark = NowNs();
  const auto step = [&](const char* name, double& out,
                        const std::function<void()>& body) {
    const ScopedSpan span(&log, name, root.id(), 0);
    body();
    const std::int64_t now = NowNs();
    out = Seconds(mark, now);
    mark = now;
  };
  const std::int64_t start = mark;

  std::optional<core::RouteEngine> engine;
  {
    std::optional<core::Study> study;
    step("setup.study_build", t.study_s, [&] {
      core::StudyOptions study_options;
      study_options.corpus_scale = spec.corpus_scale;
      study.emplace(core::Study::Build(study_options));
    });
    step("setup.freeze", t.freeze_s, [&] {
      const core::RiskGraph graph = study->BuildGraphFor("Level3");
      engine.emplace(graph, kParams);
      engine->PrepareLandmarks(spec.landmarks);
      study.reset();  // the daemon serves the frozen engine only
    });
  }
  step("setup.snapshot_save", t.save_s,
       [&] { engine->SaveSnapshotFile(d->snapshot_path); });
  engine.reset();
  step("setup.snapshot_load", t.load_s, [&] {
    d->pool = std::make_unique<util::ThreadPool>(0);
    api::ServiceOptions service_options;
    service_options.pool = d->pool.get();
    auto booted = api::Service::FromSnapshotFile(d->snapshot_path,
                                                 service_options);
    if (!booted.ok()) {
      throw std::runtime_error("snapshot boot: " + booted.error().Render());
    }
    d->service = std::make_unique<api::Service>(std::move(booted.value()));
  });
  step("setup.server_start", t.start_s, [&] {
    d->server = std::make_unique<server::Server>(*d->service, options);
    d->server->Start();
    for (std::size_t c = 0; c < spec.connections; ++c) {
      d->clients.push_back(server::Client::ConnectUnix(options.unix_path));
    }
  });
  step("setup.warmup", t.warmup_s, [&] { warmup(*d, tally); });
  t.total_s = Seconds(start, mark);
  RegistryDelta delta;
  delta.Add(before, ReadRegistry());
  t.kde_point_evals = delta["stats.kde.point_evals"];
  t.kde_batch_points = delta["stats.kde.batch_points"];
  return d;
}

// ---------------------------------------------------------------------------
// Timed passes.

/// One served call, timed; returns the reply and adds its latency.
server::Client::Result TimedCall(server::Client& client, wire::Request& request,
                                 PassResult& pass) {
  const std::int64_t t0 = NowNs();
  server::Client::Result reply = client.Call(request);
  pass.latency_ns.push_back(static_cast<double>(NowNs() - t0));
  return reply;
}

bool Served(const server::Client::Result& reply, const std::string& expected) {
  return reply.status == wire::Status::kOk && reply.body == expected;
}

std::string Mismatch(const char* what, std::size_t index,
                     const server::Client::Result& reply) {
  return std::string(what) + " request " + std::to_string(index) + ": status " +
         wire::ToString(reply.status) + ", body " +
         std::to_string(reply.body.size()) + " bytes";
}

/// Decodes one whole frame (header, then payload) the way the server's
/// read loop and the client do; throws if the bytes do not decode.
template <typename DecodePayload>
void DecodeFrame(const std::string& frame, const wire::WireLimits& limits,
                 DecodePayload decode_payload) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(frame.data());
  const auto header = wire::DecodeFrameHeader({bytes, frame.size()}, limits);
  if (!header.ok() ||
      !decode_payload(
           header.value(),
           {bytes + wire::kFrameHeaderBytes, header.value().payload_len},
           limits)
           .ok()) {
    throw std::runtime_error("wire decode replay failed");
  }
}

/// Replays of the transport and the wire codec for one traced request;
/// `body` is the reply body the server sent.
void ReplayWire(SpanLog& log, std::int32_t root, std::uint64_t id,
                server::Client& client, const wire::Request& request,
                const std::string& body) {
  {
    const ScopedSpan span(&log, "server.transport", root, id);
    wire::Request ping;
    ping.kind = wire::FrameKind::kPingRequest;
    const server::Client::Result pong = client.Call(ping);
    if (pong.status != wire::Status::kOk) {
      throw std::runtime_error("ping replay failed");
    }
  }
  std::string frame;
  {
    const ScopedSpan span(&log, "server.wire.encode_request", root, id);
    frame = wire::EncodeRequest(request);
  }
  {
    const ScopedSpan span(&log, "server.wire.decode_request", root, id);
    DecodeFrame(frame, wire::WireLimits(), wire::DecodeRequestPayload);
  }
  {
    const ScopedSpan span(&log, "server.wire.encode_response", root, id);
    frame = wire::EncodeResponse(id, wire::Status::kOk, body);
  }
  {
    const ScopedSpan span(&log, "server.wire.decode_response", root, id);
    DecodeFrame(frame, wire::ResponseLimits(), wire::DecodeResponsePayload);
  }
}

/// Per-workload pieces that Run() calls.
struct Workload {
  Warmup warmup;
  /// Builds request streams, reference bodies and direct objects; runs
  /// after set-up, outside every timing.
  std::function<void()> prepare;
  /// Untraced closed-loop pass lasting `duration_ns`.
  std::function<PassResult(Deployment&, std::int64_t duration_ns)> run;
  /// Traced pass lasting `duration_ns`; spans go to `log`.
  std::function<PassResult(Deployment&, std::int64_t duration_ns,
                           SpanLog& log)>
      run_traced;
  /// Name of the direct api span, for server.roundtrip_over_api_us.
  std::string api_span;
  /// Per-layer metrics from the registry delta of the untraced passes, the
  /// traced attribution and the pass sizes.
  std::function<void(const RegistryDelta&, const Attribution&,
                     const PassResult& untraced, MetricList&)>
      layer_metrics;
};

std::unordered_map<std::string, std::size_t> NameIndex(
    const core::RouteEngine& engine) {
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t v = 0; v < engine.node_count(); ++v) {
    index.emplace(engine.node_name(v), v);  // first PoP wins, as RequirePop
  }
  return index;
}

double PerRequest(double count, std::size_t requests) {
  return requests == 0 ? 0.0 : count / static_cast<double>(requests);
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// p-quantile of a span's durations, in `scale` nanoseconds.
double SpanQuantile(const Attribution& a, const std::string& name, double q,
                    double scale) {
  const auto it = a.durations.find(name);
  return it == a.durations.end() ? 0.0 : Quantile(it->second, q) / scale;
}
double SelfMedian(const Attribution& a, const std::string& name,
                  double scale) {
  const auto it = a.self.find(name);
  return it == a.self.end() ? 0.0 : Median(it->second) / scale;
}

constexpr double kUs = 1e3;
constexpr double kMs = 1e6;

/// Registry-derived work counters every workload reports.
void CommonLayerMetrics(const RegistryDelta& delta, std::size_t requests,
                        MetricList& m) {
  m.Add("server.scheduler.rejected_full",
        delta["server.scheduler.rejected_full"], "count");
  m.Add("server.scheduler.expired", delta["server.scheduler.expired"], "count");
  m.Add("server.scheduler.queue_depth_peak",
        delta["server.scheduler.queue_depth_peak"], "count");
  m.Add("core.heap_pops",
        PerRequest(delta["core.route_engine.heap_pops"], requests), "count/req");
  m.Add("core.relaxations",
        PerRequest(delta["core.route_engine.relaxations"], requests),
        "count/req");
  m.Add("core.alt_sweep_share",
        Share(delta["core.route_engine.alt_sweeps"],
              delta["core.route_engine.sweeps"]),
        "share");
  m.Add("core.overlay_sweeps",
        PerRequest(delta["core.route_engine.overlay_sweeps"], requests),
        "count/req");
  m.Add("util.pool_tasks_per_request",
        PerRequest(delta["util.thread_pool.tasks"], requests), "count/req");
  m.Add("util.pool_queue_depth_peak",
        delta["util.thread_pool.queue_depth_peak"], "count");
}

// --- route_serve -----------------------------------------------------------

struct RouteState {
  std::vector<wire::Request> requests;
  std::vector<std::string> expected;
  const api::Service* direct = nullptr;  // second boot of the same snapshot
  std::unordered_map<std::string, std::size_t> names;
};

wire::Request RouteRequest(const RoutePair& pair) {
  wire::Request request;
  request.kind = wire::FrameKind::kRouteRequest;
  request.route.from = pair.from;
  request.route.to = pair.to;
  return request;
}

Workload MakeRouteWorkload(const Args& args,
                           std::shared_ptr<RouteState> state) {
  Workload w;
  w.api_span = "api.route";
  w.warmup = [seed = args.seed](Deployment& d, PassResult& tally) {
    const std::vector<RoutePair> pairs = GenerateRoutePairs(
        d.service->engine(), seed ^ 0x3A3Aull, kRouteWarmup * d.clients.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      wire::Request request = RouteRequest(pairs[k]);
      const auto reply = d.clients[k % d.clients.size()].Call(request);
      tally.Check(reply.status == wire::Status::kOk,
                  [&] { return Mismatch("route warm-up", k, reply); });
    }
  };
  w.prepare = [state, args] {
    for (const RoutePair& pair : GenerateRoutePairs(state->direct->engine(),
                                                    args.seed, kRoutePoolSize)) {
      state->requests.push_back(RouteRequest(pair));
      state->expected.push_back(state->direct->Route(state->requests.back().route).body);
    }
    state->names = NameIndex(state->direct->engine());
  };
  const auto loop = [state](Deployment& d, std::int64_t deadline,
                            SpanLog* log) {
    std::vector<PassResult> per_client(d.clients.size());
    std::vector<SpanLog> logs(d.clients.size());
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> failures(d.clients.size());
    const std::int64_t start = NowNs();
    for (std::size_t c = 0; c < d.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          PassResult& pass = per_client[c];
          server::Client& client = d.clients[c];
          // Client::Call stamps the request id, so each thread owns copies.
          std::vector<wire::Request> requests = state->requests;
          const std::size_t n = requests.size();
          std::size_t i = c * n / d.clients.size();
          for (std::uint64_t k = 0; NowNs() < deadline; ++k, ++i) {
            if (log != nullptr && k >= kMaxTracedRequests) break;
            wire::Request& request = requests[i % n];
            const std::string& expected = state->expected[i % n];
            if (log == nullptr) {
              const auto reply = TimedCall(client, request, pass);
              pass.Check(Served(reply, expected),
                 [&] { return Mismatch("route", i % n, reply); });
              continue;
            }
            SpanLog& spans = logs[c];
            const std::uint64_t id = k * d.clients.size() + c + 1;
            const std::int32_t root = spans.Begin("request", -1, id);
            const auto reply = TimedCall(client, request, pass);
            spans.End(root);
            pass.Check(Served(reply, expected),
                 [&] { return Mismatch("route", i % n, reply); });
            ReplayWire(spans, root, id, client, request, reply.body);
            const std::int32_t api = spans.Begin("api.route", root, id);
            const api::RouteResponse direct = state->direct->Route(request.route);
            spans.End(api);
            const core::RouteEngine& engine = state->direct->engine();
            const std::size_t src = state->names.at(request.route.from);
            const std::size_t dst = state->names.at(request.route.to);
            std::optional<core::Path> shortest;
            std::optional<core::Path> risky;
            {
              const ScopedSpan s(&spans, "core.find_path", api, id);
              shortest = engine.FindPath(src, dst, 0.0);
            }
            {
              const ScopedSpan s(&spans, "core.find_path", api, id);
              risky = engine.FindPath(src, dst, engine.Alpha(src, dst));
            }
            if (!shortest || !risky || direct.body != expected) {
              throw std::runtime_error("route replay disagrees with the reference");
            }
            {
              const ScopedSpan s(&spans, "core.measure", api, id);
              (void)engine.Measure(*shortest);
            }
            {
              const ScopedSpan s(&spans, "core.measure", api, id);
              (void)engine.Measure(*risky);
            }
          }
        } catch (...) {
          failures[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
    PassResult total;
    for (PassResult& pass : per_client) total.Absorb(std::move(pass));
    total.elapsed_s = Seconds(start, NowNs());
    if (log != nullptr) {
      for (const SpanLog& l : logs) log->Merge(l);
    }
    return total;
  };
  w.run = [loop](Deployment& d, std::int64_t duration) {
    return loop(d, NowNs() + duration, nullptr);
  };
  w.run_traced = [loop](Deployment& d, std::int64_t duration, SpanLog& log) {
    return loop(d, NowNs() + duration, &log);
  };
  w.layer_metrics = [](const RegistryDelta& delta, const Attribution& a,
                       const PassResult& untraced, MetricList& m) {
    m.Add("api.route_us.p50", SpanQuantile(a, "api.route", 0.5, kUs), "us");
    m.Add("api.route_us.p99", SpanQuantile(a, "api.route", 0.99, kUs), "us");
    m.Add("api.route_residual_us", SelfMedian(a, "api.route", kUs), "us");
    m.Add("core.find_path_us.p50", SpanQuantile(a, "core.find_path", 0.5, kUs),
          "us");
    m.Add("core.find_path_us.p99",
          SpanQuantile(a, "core.find_path", 0.99, kUs), "us");
    m.Add("core.measure_us.p50", SpanQuantile(a, "core.measure", 0.5, kUs),
          "us");
    CommonLayerMetrics(delta, untraced.attempted, m);
  };
  return w;
}

// --- storm_replay ----------------------------------------------------------

struct StormState {
  StormPlan plan;
  std::vector<std::vector<std::string>> expected;  // per storm, per position
  std::size_t cycle_length = 0;
  std::size_t next_request = 0;  // where the next pass starts in the stream
  util::ThreadPool* pool = nullptr;
  const api::Service* direct = nullptr;
};

wire::Request StormWireRequest(const StormPlan& plan, const StormRequest& r) {
  wire::Request request;
  request.kind = wire::FrameKind::kStreamAdvisory;
  request.stream.bulletin = plan.bulletins[r.storm][r.position];
  request.stream.reset = r.reset;
  request.stream.top = kStormTop;
  return request;
}

forecast::StreamOptions LibraryStreamOptions(util::ThreadPool* pool) {
  forecast::StreamOptions options;
  options.top_moves = kStormTop;
  options.pool = pool;
  return options;
}

Workload MakeStormWorkload(std::shared_ptr<StormState> state) {
  Workload w;
  w.api_span = "api.stream";
  w.warmup = [state](Deployment& d, PassResult& tally) {
    const StormRequest first = StormRequests(state->plan, 0, 1).front();
    wire::Request request = StormWireRequest(state->plan, first);
    const auto reply = d.clients.front().Call(request);
    tally.Check(reply.status == wire::Status::kOk,
                  [&] { return Mismatch("storm warm-up", 0, reply); });
  };
  w.prepare = [state] {
    const core::RouteEngine& engine = state->direct->engine();
    for (std::size_t s = 0; s < state->plan.bulletins.size(); ++s) {
      forecast::StreamingReroute session(engine,
                                         LibraryStreamOptions(state->pool));
      std::vector<std::string> bodies;
      for (const std::string& bulletin : state->plan.bulletins[s]) {
        const auto diff = session.IngestText(bulletin);
        if (!diff.ok()) {
          throw std::runtime_error("reference replay rejected a bulletin: " +
                                   diff.error().Render());
        }
        bodies.push_back(forecast::RenderRouteDiff(diff.value(), engine,
                                                   kStormTop));
      }
      state->cycle_length += bodies.size();
      state->expected.push_back(std::move(bodies));
    }
  };
  const auto loop = [state](Deployment& d, std::int64_t deadline,
                            SpanLog* log) {
    PassResult pass;
    server::Client& client = d.clients.front();
    const core::RouteEngine& engine = state->direct->engine();
    std::unique_ptr<forecast::StreamingReroute> session;
    const std::int64_t start = NowNs();
    // Every pass starts on a cycle boundary, i.e. with a reset.
    std::size_t k = (state->next_request + state->cycle_length - 1) /
                    state->cycle_length * state->cycle_length;
    std::vector<StormRequest> chunk;
    std::size_t chunk_first = k;
    // Whole cycles only, so every pass weighs the three storms equally.
    for (; NowNs() < deadline || k % state->cycle_length != 0; ++k) {
      if (k - chunk_first >= chunk.size()) {
        chunk_first = k;
        chunk = StormRequests(state->plan, k, state->cycle_length);
      }
      const StormRequest& r = chunk[k - chunk_first];
      wire::Request request = StormWireRequest(state->plan, r);
      const std::string& expected = state->expected[r.storm][r.position];
      if (log == nullptr) {
        const auto reply = TimedCall(client, request, pass);
        pass.Check(Served(reply, expected),
                 [&] { return Mismatch("stream", k, reply); });
        continue;
      }
      const std::uint64_t id = k + 1;
      const std::int32_t root = log->Begin("request", -1, id);
      const auto reply = TimedCall(client, request, pass);
      log->End(root);
      ReplayWire(*log, root, id, client, request, reply.body);
      const std::int32_t api = log->Begin("api.stream", root, id);
      const api::RouteDiffResponse direct =
          state->direct->StreamAdvisory(request.stream);
      log->End(api);
      std::optional<forecast::Advisory> advisory;
      {
        const ScopedSpan s(log, "forecast.parse", api, id);
        auto parsed = forecast::ParseAdvisoryResult(request.stream.bulletin);
        if (!parsed.ok()) throw std::runtime_error("bulletin replay failed");
        advisory = std::move(parsed.value());
      }
      if (r.reset || session == nullptr) {
        const ScopedSpan s(log, "forecast.session_seed", api, id);
        session = std::make_unique<forecast::StreamingReroute>(
            engine, LibraryStreamOptions(state->pool));
      }
      std::optional<forecast::RouteDiff> diff;
      {
        const ScopedSpan s(log, "forecast.ingest", api, id);
        auto ingested = session->Ingest(*advisory);
        if (!ingested.ok()) throw std::runtime_error("ingest replay failed");
        diff = std::move(ingested.value());
      }
      std::string library;
      {
        const ScopedSpan s(log, "forecast.render", api, id);
        library = forecast::RenderRouteDiff(*diff, engine, kStormTop);
      }
      pass.Check(Served(reply, expected) && library == expected &&
                     direct.body == expected,
                 [&] { return Mismatch("stream", k, reply); });
    }
    state->next_request = k;
    pass.elapsed_s = Seconds(start, NowNs());
    return pass;
  };
  w.run = [loop](Deployment& d, std::int64_t duration) {
    return loop(d, NowNs() + duration, nullptr);
  };
  w.run_traced = [loop](Deployment& d, std::int64_t duration, SpanLog& log) {
    return loop(d, NowNs() + duration, &log);
  };
  w.layer_metrics = [state](const RegistryDelta& delta, const Attribution& a,
                            const PassResult& untraced, MetricList& m) {
    const double advisories = delta["stream.advisories"];
    m.Add("api.stream_ms.p50", SpanQuantile(a, "api.stream", 0.5, kMs), "ms");
    m.Add("api.stream_ms.p99", SpanQuantile(a, "api.stream", 0.99, kMs), "ms");
    m.Add("forecast.parse_us", SpanQuantile(a, "forecast.parse", 0.5, kUs),
          "us");
    m.Add("forecast.ingest_ms.p50",
          SpanQuantile(a, "forecast.ingest", 0.5, kMs), "ms");
    m.Add("forecast.ingest_ms.p99",
          SpanQuantile(a, "forecast.ingest", 0.99, kMs), "ms");
    m.Add("forecast.session_seed_ms",
          SpanQuantile(a, "forecast.session_seed", 0.5, kMs), "ms");
    m.Add("forecast.render_us", SpanQuantile(a, "forecast.render", 0.5, kUs),
          "us");
    const double pairs = static_cast<double>(
        state->direct->engine().node_count() *
        (state->direct->engine().node_count() - 1) / 2);
    m.Add("forecast.recompute_share",
          Share(delta["stream.pairs.recomputed"], pairs * advisories), "share");
    m.Add("stream.cache.hits",
          Share(delta["stream.cache.hits"], advisories), "count/adv");
    m.Add("stream.scope.pops",
          Share(delta["stream.scope.pops"], advisories), "count/adv");
    CommonLayerMetrics(delta, untraced.attempted, m);
  };
  return w;
}

// --- ensemble_whatif -------------------------------------------------------

struct EnsembleState {
  std::uint64_t seed = 0;
  std::vector<sim::EnsembleOptions> sets;
  std::vector<std::string> expected;  // per option set
  std::vector<std::unique_ptr<sim::EnsembleEngine>> reference;
  std::vector<hazard::Catalog> catalogs;
  double catalogs_s = 0.0;
  std::size_t next_request = 0;
  util::ThreadPool* pool = nullptr;
  const api::Service* direct = nullptr;
};

wire::Request EnsembleWireRequest(const sim::EnsembleOptions& options) {
  wire::Request request;
  request.kind = wire::FrameKind::kEnsembleRequest;
  request.ensemble.scenarios = options.scenarios;
  request.ensemble.seed = options.seed;
  request.ensemble.month = options.month;
  request.ensemble.top = options.criticality_top;
  request.ensemble.json = true;
  return request;
}

Workload MakeEnsembleWorkload(std::shared_ptr<EnsembleState> state) {
  Workload w;
  w.api_span = "api.ensemble";
  w.warmup = [state](Deployment& d, PassResult& tally) {
    const std::size_t first = EnsembleSequence(state->seed, 0, 1).front();
    wire::Request request = EnsembleWireRequest(state->sets[first]);
    const auto reply = d.clients.front().Call(request);
    tally.Check(reply.status == wire::Status::kOk,
                  [&] { return Mismatch("ensemble warm-up", 0, reply); });
  };
  w.prepare = [state] {
    const std::int64_t t0 = NowNs();
    state->catalogs = hazard::SynthesizeAllCatalogs();
    state->catalogs_s = Seconds(t0, NowNs());
    for (const sim::EnsembleOptions& options : state->sets) {
      state->reference.push_back(std::make_unique<sim::EnsembleEngine>(
          state->direct->engine(), state->catalogs, options, state->pool));
      state->expected.push_back(state->reference.back()->Run(state->pool).ToJson());
    }
  };
  const auto loop = [state](Deployment& d, std::int64_t deadline,
                            SpanLog* log) {
    PassResult pass;
    server::Client& client = d.clients.front();
    const core::RouteEngine& engine = state->direct->engine();
    std::unique_ptr<sim::EnsembleEngine> library;
    std::size_t library_set = state->sets.size();
    const std::int64_t start = NowNs();
    std::size_t k = state->next_request;
    constexpr std::size_t kChunk = 256;
    std::vector<std::size_t> chunk;
    std::size_t chunk_first = k;
    for (; NowNs() < deadline; ++k) {
      if (k - chunk_first >= chunk.size()) {
        chunk_first = k;
        chunk = EnsembleSequence(state->seed, k, kChunk);
      }
      const std::size_t set = chunk[k - chunk_first];
      wire::Request request = EnsembleWireRequest(state->sets[set]);
      const std::string& expected = state->expected[set];
      if (log == nullptr) {
        const auto reply = TimedCall(client, request, pass);
        pass.Check(Served(reply, expected),
                 [&] { return Mismatch("ensemble", k, reply); });
        continue;
      }
      const std::uint64_t id = k + 1;
      const std::int32_t root = log->Begin("request", -1, id);
      const auto reply = TimedCall(client, request, pass);
      log->End(root);
      ReplayWire(*log, root, id, client, request, reply.body);
      const std::int32_t api = log->Begin("api.ensemble", root, id);
      const api::EnsembleResponse direct =
          state->direct->Ensemble(request.ensemble);
      log->End(api);
      if (set != library_set) {  // the Service's one-entry engine cache
        const ScopedSpan s(log, "sim.engine_build", api, id);
        library = std::make_unique<sim::EnsembleEngine>(
            engine, state->catalogs, state->sets[set], state->pool);
        library_set = set;
      }
      std::optional<sim::EnsembleReport> report;
      {
        const ScopedSpan s(log, "sim.run", api, id);
        report = library->Run(state->pool);
      }
      std::string json;
      {
        const ScopedSpan s(log, "sim.to_json", api, id);
        json = report->ToJson();
      }
      pass.Check(Served(reply, expected) && json == expected &&
                     direct.body == expected,
                 [&] { return Mismatch("ensemble", k, reply); });
    }
    state->next_request = k;
    pass.elapsed_s = Seconds(start, NowNs());
    return pass;
  };
  w.run = [loop](Deployment& d, std::int64_t duration) {
    return loop(d, NowNs() + duration, nullptr);
  };
  w.run_traced = [loop, state](Deployment& d, std::int64_t duration,
                               SpanLog& log) {
    // The direct Service synthesizes its catalogs on first use; pay that
    // before the traced pass.
    (void)state->direct->Ensemble(EnsembleWireRequest(state->sets.front()).ensemble);
    return loop(d, NowNs() + duration, &log);
  };
  w.layer_metrics = [state](const RegistryDelta& delta, const Attribution& a,
                            const PassResult& untraced, MetricList& m) {
    m.Add("api.ensemble_ms.p50", SpanQuantile(a, "api.ensemble", 0.5, kMs),
          "ms");
    m.Add("api.ensemble.engine_build_share",
          Share(delta["api.ensemble.engine_builds"],
                delta["api.ensemble.engine_builds"] +
                    delta["api.ensemble.engine_reuses"]),
          "share");
    m.Add("sim.engine_build_ms",
          SpanQuantile(a, "sim.engine_build", 0.5, kMs), "ms");
    m.Add("sim.run_ms.p50", SpanQuantile(a, "sim.run", 0.5, kMs), "ms");
    // Scenario draws, timed serially over every option set's scenario
    // ids (repeated ids draw the same scenario again).
    constexpr std::size_t kDraws = 4096;
    const std::int64_t t0 = NowNs();
    for (std::size_t k = 0; k < kDraws; ++k) {
      const auto& engine = state->reference[k % state->reference.size()];
      (void)engine->Draw(k / state->reference.size() %
                         engine->options().scenarios);
    }
    const std::size_t draws = kDraws;
    m.Add("sim.draw_us", PerRequest(static_cast<double>(NowNs() - t0) / kUs, draws),
          "us");
    m.Add("sim.to_json_us", SpanQuantile(a, "sim.to_json", 0.5, kUs), "us");
    m.Add("sim.skip_share",
          Share(delta["sim.ensemble.skipped_pair_sweeps"],
                delta["sim.ensemble.skipped_pair_sweeps"] +
                    delta["sim.ensemble.overlay_pair_sweeps"]),
          "share");
    CommonLayerMetrics(delta, untraced.attempted, m);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Reporting.

/// Every per-layer metric name, in report order; a workload that does not
/// exercise a layer reports it as 0.
const char* const kLayerMetricOrder[][2] = {
    {"server.roundtrip_over_api_us", "us"},
    {"server.transport_us", "us"},
    {"server.wire.encode_request_us", "us"},
    {"server.wire.decode_request_us", "us"},
    {"server.wire.encode_response_us", "us"},
    {"server.wire.decode_response_us", "us"},
    {"server.scheduler.rejected_full", "count"},
    {"server.scheduler.expired", "count"},
    {"server.scheduler.queue_depth_peak", "count"},
    {"api.route_us.p50", "us"},
    {"api.route_us.p99", "us"},
    {"api.route_residual_us", "us"},
    {"api.stream_ms.p50", "ms"},
    {"api.stream_ms.p99", "ms"},
    {"api.ensemble_ms.p50", "ms"},
    {"api.ensemble.engine_build_share", "share"},
    {"core.find_path_us.p50", "us"},
    {"core.find_path_us.p99", "us"},
    {"core.measure_us.p50", "us"},
    {"core.heap_pops", "count/req"},
    {"core.relaxations", "count/req"},
    {"core.alt_sweep_share", "share"},
    {"core.overlay_sweeps", "count/req"},
    {"forecast.parse_us", "us"},
    {"forecast.ingest_ms.p50", "ms"},
    {"forecast.ingest_ms.p99", "ms"},
    {"forecast.session_seed_ms", "ms"},
    {"forecast.render_us", "us"},
    {"forecast.recompute_share", "share"},
    {"stream.cache.hits", "count/adv"},
    {"stream.scope.pops", "count/adv"},
    {"sim.engine_build_ms", "ms"},
    {"sim.run_ms.p50", "ms"},
    {"sim.draw_us", "us"},
    {"sim.to_json_us", "us"},
    {"sim.skip_share", "share"},
    {"util.pool_tasks_per_request", "count/req"},
    {"util.pool_queue_depth_peak", "count"},
    {"setup.study_build_s", "s"},
    {"setup.freeze_s", "s"},
    {"setup.snapshot_save_ms", "ms"},
    {"setup.snapshot_load_ms", "ms"},
    {"setup.catalogs_s", "s"},
    {"setup.server_start_ms", "ms"},
    {"setup.warmup_s", "s"},
    {"stats.kde.point_evals", "count"},
    {"stats.kde.batch_points", "count"},
    {"layer.server.self_us", "us"},
    {"layer.api.self_us", "us"},
    {"layer.core.self_us", "us"},
    {"layer.forecast.self_us", "us"},
    {"layer.sim.self_us", "us"},
    {"layer.unattributed.self_us", "us"},
    {"trace.overhead_share", "share"},
    {"trace.unattributed_share", "share"},
};

/// Orders `measured` by kLayerMetricOrder, filling unmeasured names with 0.
std::vector<Metric> OrderLayerMetrics(const MetricList& measured) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : measured.all()) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetricOrder) {
    const auto it = by_name.find(name);
    out.push_back(it != by_name.end() ? it->second : Metric{name, 0.0, unit});
    if (it != by_name.end() && it->second.unit != unit) {
      throw std::logic_error(std::string("unit mismatch for ") + name);
    }
    by_name.erase(name);
  }
  if (!by_name.empty()) {
    throw std::logic_error("unlisted layer metric " + by_name.begin()->first);
  }
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintLayerTable(const WorkloadSpec& spec, const Attribution& a,
                     double traced_p50_us, double untraced_p50_us) {
  std::printf(
      "per-layer self time, %s: median band of %zu traced requests "
      "(40th-60th pct); traced p50 %.1f us, untraced e2e p50 %.1f us\n",
      spec.name.c_str(), a.band_requests, traced_p50_us, untraced_p50_us);
  std::printf("  %-14s %12s %10s %12s\n", "layer", "self us", "of band",
              "of e2e p50");
  double total = 0.0;
  for (const auto& [layer, ns] : a.band_self) {
    total += ns;
    std::printf("  %-14s %12.2f %9.1f%% %11.1f%%\n", layer.c_str(), ns / kUs,
                100.0 * Share(ns, a.band_root_mean),
                100.0 * Share(ns / kUs, untraced_p50_us));
  }
  std::printf("  %-14s %12.2f %9.1f%% %11.1f%%\n", "total", total / kUs,
              100.0 * Share(total, a.band_root_mean),
              100.0 * Share(total / kUs, untraced_p50_us));
}

std::string HostJson(const std::string& commit) {
  const std::string kde = SERVEBENCH_KDE_FLAGS;
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(std::string("gcc ") + __VERSION__) +
         ", \"build_type\": " + JsonString(SERVEBENCH_BUILD_TYPE) +
         ", \"kde_flags\": " + JsonString(kde) +
         ", \"kde_march_native\": " +
         (kde.find("-march=native") != std::string::npos ? "true" : "false") +
         ", \"commit\": " + JsonString(commit) + "}";
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  const WorkloadSpec spec = SpecFor(args.workload);
  obs::MetricsRegistry::Global().SetEnabled(true);  // the program default

  // Direct-call objects use their own pool, idle during timed passes.
  util::ThreadPool direct_pool(0);
  auto route = std::make_shared<RouteState>();
  auto storm = std::make_shared<StormState>();
  auto ensemble = std::make_shared<EnsembleState>();
  Workload w;
  if (spec.name == "route_serve") {
    w = MakeRouteWorkload(args, route);
  } else if (spec.name == "storm_replay") {
    storm->plan = GenerateStormPlan(args.seed);
    storm->pool = &direct_pool;
    w = MakeStormWorkload(storm);
  } else {
    ensemble->seed = args.seed;
    ensemble->sets = EnsembleOptionSets(kEnsembleScenarios);
    ensemble->pool = &direct_pool;
    w = MakeEnsembleWorkload(ensemble);
  }

  // Rounds: each is a full set-up followed by a timed pass of
  // seconds / kRounds. Reporting the median over rounds keeps a host
  // stall in one round from moving the run's numbers. The last round's
  // deployment also serves the traced pass.
  SpanLog setup_log;
  PassResult warmup;  // warm-up replies, checked like the timed ones
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  std::optional<api::Service> direct;
  std::string self_test;
  RegistryDelta delta;  // over the untraced passes
  PassResult untraced;  // all rounds pooled
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::vector<double> rates;
  double peak_rss_mb = 0.0;
  const auto pass_ns = static_cast<std::int64_t>(
      args.seconds * 1e9 / static_cast<double>(kRounds));
  for (std::size_t round = 0; round < kRounds; ++round) {
    deployment.reset();
    SetupTimes t;
    deployment = Setup(spec, args, round, w.warmup, t, warmup, setup_log);
    setups.push_back(t);
    std::fprintf(stderr, "%s: round %zu set-up took %.3f s\n",
                 spec.name.c_str(), round + 1, t.total_s);
    if (round == 0) {
      // Direct calls go to a second boot of the same snapshot.
      api::ServiceOptions direct_options;
      direct_options.pool = &direct_pool;
      auto booted = api::Service::FromSnapshotFile(deployment->snapshot_path,
                                                   direct_options);
      if (!booted.ok()) throw std::runtime_error(booted.error().Render());
      direct.emplace(std::move(booted.value()));
      route->direct = storm->direct = ensemble->direct = &*direct;
      self_test = SelfTest(direct->engine(), args.seed);
      w.prepare();
    }

    ResetPeakGauges();
    const RegistryReading before = ReadRegistry();
    PassResult pass = w.run(*deployment, pass_ns);
    delta.Add(before, ReadRegistry());
    // What one deployment holds: one set-up, the reference objects and
    // a timed pass.
    if (round == 0) peak_rss_mb = PeakRssMb();
    p50s.push_back(Quantile(pass.latency_ns, 0.5));
    p90s.push_back(Quantile(pass.latency_ns, 0.9));
    p99s.push_back(Quantile(pass.latency_ns, 0.99));
    rates.push_back(
        Share(static_cast<double>(pass.attempted), pass.elapsed_s));
    untraced.Absorb(std::move(pass));
  }

  std::size_t attempted = untraced.attempted + warmup.attempted;
  std::size_t failed = untraced.failed + warmup.failed;
  std::vector<std::string> errors = warmup.errors;
  errors.insert(errors.end(), untraced.errors.begin(), untraced.errors.end());

  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total_s);
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(values);
  };

  MetricList e2e;
  const double p50_ms = Median(p50s) / kMs;
  e2e.Add("setup_s", Median(setup_totals), "s");
  e2e.Add("latency_p50_ms", p50_ms, "ms");
  e2e.Add("latency_p90_ms", Median(p90s) / kMs, "ms");
  e2e.Add("latency_p99_ms", Median(p99s) / kMs, "ms");
  e2e.Add("throughput_rps", Median(rates), "1/s");
  e2e.Add("success_rate",
          1.0 - Share(static_cast<double>(untraced.failed),
                      static_cast<double>(untraced.attempted)),
          "ratio");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  std::vector<Metric> layer;
  SpanLog log;
  if (args.trace) {
    const std::int64_t epoch = NowNs();
    PassResult traced = w.run_traced(
        *deployment, static_cast<std::int64_t>(args.seconds * 1e9), log);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    const Attribution a = Attribute(log, "request");
    const double traced_p50_us = Median(a.roots) / kUs;
    const double untraced_p50_us = p50_ms * 1e3;

    MetricList m;
    m.Add("server.roundtrip_over_api_us",
          untraced_p50_us - SpanQuantile(a, w.api_span, 0.5, kUs), "us");
    m.Add("server.transport_us", SpanQuantile(a, "server.transport", 0.5, kUs),
          "us");
    for (const char* codec : {"encode_request", "decode_request",
                              "encode_response", "decode_response"}) {
      const std::string name = std::string("server.wire.") + codec;
      m.Add(name + "_us", SpanQuantile(a, name, 0.5, kUs), "us");
    }
    w.layer_metrics(delta, a, untraced, m);
    m.Add("setup.study_build_s", setup_median(&SetupTimes::study_s), "s");
    m.Add("setup.freeze_s", setup_median(&SetupTimes::freeze_s), "s");
    m.Add("setup.snapshot_save_ms", setup_median(&SetupTimes::save_s) * 1e3,
          "ms");
    m.Add("setup.snapshot_load_ms", setup_median(&SetupTimes::load_s) * 1e3,
          "ms");
    m.Add("setup.catalogs_s", ensemble->catalogs_s, "s");
    m.Add("setup.server_start_ms", setup_median(&SetupTimes::start_s) * 1e3,
          "ms");
    m.Add("setup.warmup_s", setup_median(&SetupTimes::warmup_s), "s");
    m.Add("stats.kde.point_evals", setup_median(&SetupTimes::kde_point_evals),
          "count");
    m.Add("stats.kde.batch_points",
          setup_median(&SetupTimes::kde_batch_points), "count");
    for (const char* name : {"server", "api", "core", "forecast", "sim",
                             "unattributed"}) {
      const auto it = a.band_self.find(name);
      m.Add(std::string("layer.") + name + ".self_us",
            it == a.band_self.end() ? 0.0 : it->second / kUs, "us");
    }
    m.Add("trace.overhead_share", traced_p50_us / untraced_p50_us - 1.0,
          "share");
    const auto unattributed = a.band_self.find("unattributed");
    m.Add("trace.unattributed_share",
          Share(unattributed == a.band_self.end() ? 0.0 : unattributed->second,
                a.band_root_mean),
          "share");
    layer = OrderLayerMetrics(m);
    PrintLayerTable(spec, a, traced_p50_us, untraced_p50_us);

    setup_log.Merge(log);
    if (!args.spans.empty() && !setup_log.WriteJsonLines(args.spans, epoch)) {
      throw std::runtime_error("cannot write spans to " + args.spans);
    }
  }

  const bool correct = failed == 0 && self_test.empty();
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: mismatch: %s\n", spec.name.c_str(), e.c_str());
  }
  if (!self_test.empty()) {
    std::fprintf(stderr, "%s: generator self-test failed: %s\n",
                 spec.name.c_str(), self_test.c_str());
  }

  const double error_rate =
      Share(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("workload %s, seed %llu, %zu rounds of %.2f s, %zu timed "
              "requests (%zu checked in all), error_rate %.6g, "
              "correctness %s, generator self-test %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              kRounds, args.seconds / static_cast<double>(kRounds),
              untraced.latency_ns.size(), attempted, error_rate,
              failed == 0 ? "pass" : "FAIL",
              self_test.empty() ? "pass" : "FAIL");
  PrintMetrics("end-to-end metrics:", e2e.all());
  if (args.trace) PrintMetrics("per-layer metrics:", layer);

  if (!args.record.empty()) {
    std::FILE* out = std::fopen(args.record.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + args.record);
    std::fprintf(
        out,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"host\": %s, \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"error_rate\": %s, \"self_test\": %s, \"setups_s\": [",
        JsonString(spec.name).c_str(),
        static_cast<unsigned long long>(args.seed),
        JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
        HostJson(args.commit).c_str(), correct ? "true" : "false", attempted,
        failed, JsonNumber(error_rate).c_str(),
        JsonString(self_test.empty() ? "pass" : self_test).c_str());
    for (std::size_t i = 0; i < setup_totals.size(); ++i) {
      std::fprintf(out, "%s%s", i ? ", " : "",
                   JsonNumber(setup_totals[i]).c_str());
    }
    std::fprintf(out, "], \"end_to_end\": %s, \"per_layer\": %s}\n",
                 MetricsJson(e2e.all()).c_str(), MetricsJson(layer).c_str());
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write record");
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(args.trace ? layer : e2e.all()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::Run(servebench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: error: %s\n", e.what());
    return 2;
  }
}

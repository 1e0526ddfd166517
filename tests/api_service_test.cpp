// riskroute::api::Service tests: the typed request/response layer the
// CLI subcommands and riskroute_serverd handlers share. The load-bearing
// contract is byte-identity — a Service body is a pure function of
// (engine, request), no matter whether the engine was frozen live or
// booted from a snapshot, and no matter the worker-pool size.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <future>
#include <numeric>
#include <string>
#include <vector>

#include "api/service.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "forecast/tracks.h"
#include "geo/geo_point.h"
#include "obs/metrics.h"
#include "provision/augmentation.h"
#include "tests/graph_fixtures.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::RiskGraph;
using core::RiskNode;
using core::RiskParams;
using core::RouteEngine;
using fixtures::SampleGraph;

constexpr RiskParams kParams{1e5, 1e3};

api::Service MakeService(const RiskGraph& graph,
                         const api::ServiceOptions& options = {}) {
  return api::Service(RouteEngine(graph, kParams), options);
}

/// SampleGraph with its forecast plane zeroed: a stream session needs a
/// baseline freeze.
RiskGraph BaselineGraph(std::size_t n, std::uint64_t seed) {
  RiskGraph graph = SampleGraph(n, seed);
  graph.SetForecastRisks(std::vector<double>(graph.node_count(), 0.0));
  return graph;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("riskroute_api_test_" + name)).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ApiServiceTest, RouteAnswersWithBodyAndMetrics) {
  const RiskGraph graph = SampleGraph(30, 11);
  const api::Service service = MakeService(graph);

  api::RouteRequest request;
  request.from = "pop-0";
  request.to = "pop-29";
  const api::RouteResponse response = service.Route(request);
  ASSERT_TRUE(response.connected);
  EXPECT_FALSE(response.body.empty());
  EXPECT_EQ(response.shortest_path.front(), 0u);
  EXPECT_EQ(response.shortest_path.back(), 29u);
  EXPECT_EQ(response.riskroute_path.front(), 0u);
  EXPECT_EQ(response.riskroute_path.back(), 29u);
  // Eq 1: the risk-aware path never pays more bit-risk miles than the
  // shortest path, and never fewer raw miles.
  EXPECT_LE(response.riskroute.bit_risk_miles,
            response.shortest.bit_risk_miles);
  EXPECT_GE(response.riskroute.miles, response.shortest.miles);
  // The body opens with the two route lines and carries the hop table.
  EXPECT_EQ(response.body.rfind("shortest ", 0), 0u);
  EXPECT_NE(response.body.find("\nriskroute: "), std::string::npos);
  EXPECT_NE(response.body.find("per-hop bit-risk miles"), std::string::npos);
}

TEST(ApiServiceTest, RouteUnknownPopThrowsCliMessage) {
  const api::Service service = MakeService(SampleGraph(10, 3));
  api::RouteRequest request;
  request.from = "Atlantis, XX";
  request.to = "pop-1";
  try {
    (void)service.Route(request);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "no PoP named 'Atlantis, XX' in this network");
  }
}

TEST(ApiServiceTest, RouteDisconnectedPopsIsNotAnError) {
  // Two components: 0-1 and 2-3.
  RiskGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.AddNode(RiskNode{"pop-" + std::to_string(i),
                           geo::GeoPoint(30.0 + i, -100.0 + i), 0.5, 0.1,
                           0.0});
  }
  graph.AddEdgeByDistance(0, 1);
  graph.AddEdgeByDistance(2, 3);
  const api::Service service = MakeService(graph);
  api::RouteRequest request;
  request.from = "pop-0";
  request.to = "pop-3";
  const api::RouteResponse response = service.Route(request);
  EXPECT_FALSE(response.connected);
  EXPECT_TRUE(response.body.empty());
}

TEST(ApiServiceTest, SnapshotBootServesByteIdenticalBodies) {
  const RiskGraph graph = SampleGraph(24, 29);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(4);

  TempFile snapshot("snapshot_parity.rre");
  engine.SaveSnapshotFile(snapshot.path());
  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;
  const api::Service live(std::move(engine), options);

  auto booted = api::Service::FromSnapshotFile(snapshot.path(), options);
  ASSERT_TRUE(booted.ok()) << booted.error().Render();
  const api::Service& frozen = booted.value();

  api::RouteRequest route;
  route.from = "pop-2";
  route.to = "pop-21";
  EXPECT_EQ(live.Route(route).body, frozen.Route(route).body);

  api::RatiosRequest ratios;
  ratios.label = "parity";
  EXPECT_EQ(live.Ratios(ratios).body, frozen.Ratios(ratios).body);

  api::EnsembleRequest ensemble;
  ensemble.scenarios = 16;
  ensemble.top = 4;
  EXPECT_EQ(live.Ensemble(ensemble).body, frozen.Ensemble(ensemble).body);
  ensemble.json = true;
  EXPECT_EQ(live.Ensemble(ensemble).body, frozen.Ensemble(ensemble).body);

  api::ProvisionRequest provision;
  provision.links = 2;
  EXPECT_EQ(live.Provision(provision).body, frozen.Provision(provision).body);

  // Triaged ensemble: same frozen-vs-live contract, both renderings.
  ensemble.json = false;
  ensemble.triage = true;
  ensemble.scenarios = 512;
  ensemble.pilot = 32;
  ensemble.audit_stride = 64;
  EXPECT_EQ(live.Ensemble(ensemble).body, frozen.Ensemble(ensemble).body);
  ensemble.json = true;
  EXPECT_EQ(live.Ensemble(ensemble).body, frozen.Ensemble(ensemble).body);
}

TEST(ApiServiceTest, SnapshotBootRejectsHostileBytesWithDiagnostic) {
  TempFile bogus("bogus.rre");
  std::FILE* f = std::fopen(bogus.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot", f);
  std::fclose(f);
  const auto result = api::Service::FromSnapshotFile(bogus.path());
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.error().message.empty());
}

TEST(ApiServiceTest, RatiosMatchesIntradomainSweepBitwise) {
  const RiskGraph graph = SampleGraph(20, 7);
  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;
  const api::Service service = MakeService(graph, options);

  const api::RatiosResponse response = service.Ratios({});
  std::vector<std::size_t> everyone(graph.node_count());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  const core::RatioReport direct =
      core::RouteEngine(graph, kParams).ComputeRatios(everyone, everyone, &pool);
  EXPECT_EQ(response.pops, graph.node_count());
  EXPECT_EQ(response.report.risk_reduction_ratio, direct.risk_reduction_ratio);
  EXPECT_EQ(response.report.distance_increase_ratio,
            direct.distance_increase_ratio);
  EXPECT_EQ(response.report.pair_count, direct.pair_count);
  EXPECT_NE(response.body.find("snapshot"), std::string::npos);
}

TEST(ApiServiceTest, BodiesAreThreadCountIndependent) {
  const RiskGraph graph = SampleGraph(18, 13);
  api::EnsembleRequest ensemble;
  ensemble.scenarios = 24;
  ensemble.top = 5;
  api::RatiosRequest ratios;

  std::string ensemble_baseline;
  std::string ratios_baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    api::ServiceOptions options;
    options.pool = &pool;
    const api::Service service = MakeService(graph, options);
    const std::string ensemble_body = service.Ensemble(ensemble).body;
    const std::string ratios_body = service.Ratios(ratios).body;
    if (ensemble_baseline.empty()) {
      ensemble_baseline = ensemble_body;
      ratios_baseline = ratios_body;
    } else {
      // Bitwise: the PR 2 determinism contract, through the api layer.
      EXPECT_EQ(ensemble_body, ensemble_baseline) << threads << " threads";
      EXPECT_EQ(ratios_body, ratios_baseline) << threads << " threads";
    }
  }
}

TEST(ApiServiceTest, TriagedEnsembleBodiesAndAccounting) {
  const RiskGraph graph = SampleGraph(18, 13);
  api::EnsembleRequest request;
  request.scenarios = 4096;
  request.top = 4;
  request.triage = true;
  request.pilot = 48;
  request.audit_stride = 128;
  request.base_rate_ppm = 50'000;

  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;
  const api::Service service = MakeService(graph, options);
  const api::EnsembleResponse text = service.Ensemble(request);
  ASSERT_TRUE(text.triaged.has_value());
  // The response's headline report IS the HT estimate.
  EXPECT_EQ(text.report.ToJson(), text.triaged->estimate.ToJson());
  // The human body carries the triage accounting line.
  EXPECT_NE(text.body.find("triage:"), std::string::npos);

  api::EnsembleRequest json_request = request;
  json_request.json = true;
  const api::EnsembleResponse json = service.Ensemble(json_request);
  ASSERT_TRUE(json.triaged.has_value());
  // JSON body is exactly the triaged report's serialization.
  EXPECT_EQ(json.body, json.triaged->ToJson());
  EXPECT_NE(json.body.find("\"triage\""), std::string::npos);

  // Bitwise across worker-pool sizes, like the exact path.
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    api::ServiceOptions options;
    options.pool = &pool;
    const api::Service pooled = MakeService(graph, options);
    const std::string body = pooled.Ensemble(json_request).body;
    if (baseline.empty()) {
      baseline = body;
    } else {
      EXPECT_EQ(body, baseline) << threads << " threads";
    }
  }
  EXPECT_EQ(json.body, baseline);
}

TEST(ApiServiceTest, ProvisionMatchesGraphOverloadPath) {
  const RiskGraph graph = SampleGraph(16, 19);
  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;
  const api::Service service = MakeService(graph, options);

  api::ProvisionRequest request;
  request.links = 2;
  const api::ProvisionResponse response = service.Provision(request);

  provision::AugmentationOptions aug;
  aug.links_to_add = 2;
  aug.candidates.max_candidates = graph.node_count() > 100 ? 120 : 400;
  const auto direct =
      provision::GreedyAugment(RouteEngine(graph, kParams), aug, &pool);
  ASSERT_EQ(response.result.steps.size(), direct.steps.size());
  EXPECT_DOUBLE_EQ(response.result.original_bit_risk_miles,
                   direct.original_bit_risk_miles);
  for (std::size_t s = 0; s < direct.steps.size(); ++s) {
    EXPECT_EQ(response.result.steps[s].link.a, direct.steps[s].link.a);
    EXPECT_EQ(response.result.steps[s].link.b, direct.steps[s].link.b);
    EXPECT_DOUBLE_EQ(response.result.steps[s].fraction_of_original,
                     direct.steps[s].fraction_of_original);
  }
  EXPECT_EQ(response.body.rfind("aggregate bit-risk today: ", 0), 0u);
}

TEST(ApiServiceTest, ProvisionZeroLinksThrows) {
  const api::Service service = MakeService(SampleGraph(8, 5));
  api::ProvisionRequest request;
  request.links = 0;
  EXPECT_THROW((void)service.Provision(request), InvalidArgument);
}

TEST(ApiServiceTest, ServiceIsMovable) {
  const RiskGraph graph = BaselineGraph(12, 31);
  api::Service service = MakeService(graph);
  const std::string before = service.Ratios({}).body;
  api::EnsembleRequest ensemble;
  ensemble.scenarios = 8;
  ensemble.top = 3;
  const std::string ensemble_before = service.Ensemble(ensemble).body;
  const auto texts = forecast::GenerateAdvisoryTexts(forecast::IreneTrack());
  api::StreamAdvisoryRequest stream;
  stream.bulletin = texts[0];
  const std::string stream_before = service.StreamAdvisory(stream).body;

  // The pair table and the stream session built before the move keep
  // answering from the moved engine.
  api::Service moved = std::move(service);
  EXPECT_EQ(moved.Ratios({}).body, before);
  EXPECT_EQ(moved.Ensemble(ensemble).body, ensemble_before);
  const api::Service reference = MakeService(graph);
  (void)reference.StreamAdvisory(stream);
  stream.bulletin = texts[1];
  EXPECT_EQ(moved.StreamAdvisory(stream).body,
            reference.StreamAdvisory(stream).body);
  stream.bulletin = texts[0];
  stream.reset = true;
  EXPECT_EQ(moved.StreamAdvisory(stream).body, stream_before);
}

TEST(ApiServiceTest, PairTableIsBuiltOnceAndOnlyForEnsembleAndStream) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs registry disabled";
  obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("core.pair_routes.builds");
  const RiskGraph graph = BaselineGraph(16, 23);
  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;

  {
    const api::Service service = MakeService(graph, options);
    const std::uint64_t before = builds.Total();
    api::RouteRequest route;
    route.from = "pop-0";
    route.to = "pop-15";
    (void)service.Route(route);
    EXPECT_EQ(builds.Total() - before, 0u) << "a route request built it";
    (void)service.Ratios({});
    api::ProvisionRequest provision;
    provision.links = 1;
    (void)service.Provision(provision);
    EXPECT_EQ(builds.Total() - before, 0u) << "ratios or provision built it";
  }

  const api::Service service = MakeService(graph, options);
  const std::uint64_t before = builds.Total();
  api::EnsembleRequest ensemble;
  ensemble.scenarios = 16;
  ensemble.top = 3;
  (void)service.Ensemble(ensemble);
  ensemble.seed = 7;
  ensemble.month = 9;
  (void)service.Ensemble(ensemble);
  api::StreamAdvisoryRequest stream;
  stream.bulletin =
      forecast::GenerateAdvisoryTexts(forecast::IreneTrack()).front();
  (void)service.StreamAdvisory(stream);
  stream.reset = true;
  (void)service.StreamAdvisory(stream);
  EXPECT_EQ(builds.Total() - before, 1u);
}

TEST(ApiServiceTest, ConcurrentFirstRequestsShareOneTable) {
  const RiskGraph graph = BaselineGraph(18, 37);
  util::ThreadPool pool(2);
  api::ServiceOptions options;
  options.pool = &pool;
  api::EnsembleRequest ensemble;
  ensemble.scenarios = 24;
  ensemble.top = 4;
  ensemble.json = true;
  api::StreamAdvisoryRequest stream;
  stream.bulletin =
      forecast::GenerateAdvisoryTexts(forecast::IreneTrack()).front();

  std::string serial_ensemble;
  std::string serial_stream;
  {
    const api::Service serial = MakeService(graph, options);
    serial_ensemble = serial.Ensemble(ensemble).body;
    serial_stream = serial.StreamAdvisory(stream).body;
  }

  obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("core.pair_routes.builds");
  const api::Service service = MakeService(graph, options);
  const std::uint64_t before = builds.Total();
  auto ensemble_body = std::async(std::launch::async, [&] {
    return service.Ensemble(ensemble).body;
  });
  auto stream_body = std::async(std::launch::async, [&] {
    return service.StreamAdvisory(stream).body;
  });
  EXPECT_EQ(ensemble_body.get(), serial_ensemble);
  EXPECT_EQ(stream_body.get(), serial_stream);
  if (obs::Enabled()) {
    EXPECT_EQ(builds.Total() - before, 1u);
  }
}

}  // namespace
}  // namespace riskroute

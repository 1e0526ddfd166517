// Tests for the simulation module (gravity traffic, Monte-Carlo outage
// validation), the shared-risk analysis, and the hazard type-weight
// extension of Section 5.2.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/route_engine.h"
#include "hazard/catalog.h"
#include "hazard/risk_field.h"
#include "hazard/synthesis.h"
#include "provision/shared_risk.h"
#include "sim/ensemble.h"
#include "sim/outage_sim.h"
#include "sim/traffic.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace riskroute::sim {
namespace {

using core::RiskGraph;
using core::RiskNode;

/// West-east graph with a risky southern corridor and safe northern
/// detour; hazard events concentrate on the southern corridor.
RiskGraph CorridorGraph() {
  RiskGraph graph;
  graph.AddNode(RiskNode{"W", geo::GeoPoint(35.0, -100.0), 0.3, 0.00, 0.0});
  graph.AddNode(RiskNode{"N", geo::GeoPoint(39.5, -95.0), 0.1, 0.001, 0.0});
  graph.AddNode(RiskNode{"S", geo::GeoPoint(32.0, -95.0), 0.2, 0.30, 0.0});
  graph.AddNode(RiskNode{"E", geo::GeoPoint(35.0, -90.0), 0.4, 0.00, 0.0});
  graph.AddEdgeByDistance(0, 1);
  graph.AddEdgeByDistance(1, 3);
  graph.AddEdgeByDistance(0, 2);
  graph.AddEdgeByDistance(2, 3);
  return graph;
}

/// Catalog of events clustered on the southern corridor node.
std::vector<hazard::Catalog> SouthernEvents() {
  util::Rng rng(5);
  std::vector<hazard::Catalog> catalogs;
  catalogs.emplace_back(
      hazard::HazardType::kFemaHurricane,
      hazard::SampleMixture({{geo::GeoPoint(32.0, -95.0), 1.0, 60.0}}, 400,
                            rng));
  return catalogs;
}

// ---------- traffic ----------

TEST(Traffic, GravityNormalizesToTotal) {
  const RiskGraph graph = CorridorGraph();
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph, 10.0);
  double total = 0.0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    for (std::size_t j = 0; j < traffic.size(); ++j) {
      total += traffic.demand(i, j);
    }
  }
  EXPECT_NEAR(total, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(traffic.demand(1, 1), 0.0);
}

TEST(Traffic, GravityWeighsPopulationProducts) {
  const RiskGraph graph = CorridorGraph();
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  // Pair (W=0.3, E=0.4) must out-demand pair (N=0.1, S=0.2).
  EXPECT_GT(traffic.demand(0, 3), traffic.demand(1, 2));
  // Symmetric by construction.
  EXPECT_DOUBLE_EQ(traffic.demand(0, 3), traffic.demand(3, 0));
}

TEST(Traffic, UniformIsUniform) {
  const TrafficMatrix traffic = TrafficMatrix::Uniform(4, 12.0);
  EXPECT_DOUBLE_EQ(traffic.demand(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(traffic.demand(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(traffic.demand(2, 2), 0.0);
}

TEST(Traffic, Validation) {
  const RiskGraph graph = CorridorGraph();
  EXPECT_THROW((void)TrafficMatrix::Gravity(graph, -1.0), InvalidArgument);
  EXPECT_THROW((void)TrafficMatrix::Uniform(0), InvalidArgument);
  const TrafficMatrix traffic = TrafficMatrix::Uniform(4);
  EXPECT_THROW((void)traffic.demand(4, 0), InvalidArgument);
}

// ---------- outage simulation ----------

TEST(OutageSim, RiskRouteDodgesDamageOnTheCorridorGraph) {
  // The headline validation: events strike the risky southern corridor,
  // so RiskRoute (which prefers the northern detour) must lose less
  // transit traffic than shortest-path routing.
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  OutageSimOptions options;
  options.trials = 500;
  options.damage_radius_scale = 80.0 / 120.0;  // 80 mi hurricanes
  const OutageSimReport report =
      RunOutageSimulation(engine, SouthernEvents(), traffic, options);
  EXPECT_EQ(report.trials, 500u);
  EXPECT_GT(report.shortest_path_affected, 0.0);
  EXPECT_LT(report.riskroute_affected, report.shortest_path_affected);
  EXPECT_LT(report.AffectedRatio(), 0.7);
}

TEST(OutageSim, ZeroLambdaMakesRoutingsIdentical) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{0, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  OutageSimOptions options;
  options.trials = 200;
  const OutageSimReport report =
      RunOutageSimulation(engine, SouthernEvents(), traffic, options);
  EXPECT_DOUBLE_EQ(report.shortest_path_affected, report.riskroute_affected);
  EXPECT_DOUBLE_EQ(report.AffectedRatio(), 1.0);
}

TEST(OutageSim, Deterministic) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  OutageSimOptions options;
  options.trials = 100;
  const OutageSimReport a =
      RunOutageSimulation(engine, SouthernEvents(), traffic, options);
  const OutageSimReport b =
      RunOutageSimulation(engine, SouthernEvents(), traffic, options);
  EXPECT_DOUBLE_EQ(a.shortest_path_affected, b.shortest_path_affected);
  EXPECT_DOUBLE_EQ(a.riskroute_affected, b.riskroute_affected);
  EXPECT_DOUBLE_EQ(a.endpoint_loss, b.endpoint_loss);
}

TEST(OutageSim, BitwiseIdenticalAcrossThreadCounts) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  const std::vector<hazard::Catalog> catalogs = SouthernEvents();
  OutageSimOptions options;
  options.trials = 300;
  const OutageSimReport serial =
      RunOutageSimulation(engine, catalogs, traffic, options);
  ASSERT_GT(serial.shortest_path_affected, 0.0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::ThreadPool pool(threads);
    const OutageSimReport pooled =
        RunOutageSimulation(engine, catalogs, traffic, options, &pool);
    EXPECT_EQ(pooled.trials, serial.trials);
    EXPECT_EQ(pooled.shortest_path_affected, serial.shortest_path_affected);
    EXPECT_EQ(pooled.riskroute_affected, serial.riskroute_affected);
    EXPECT_EQ(pooled.endpoint_loss, serial.endpoint_loss);
    EXPECT_EQ(pooled.mean_pops_disabled, serial.mean_pops_disabled);
  }
}

// Trial k is the ensemble's Draw(k) with jitter, fringe failures and link
// cuts off: the simulator owns no event pick or footprint test of its own.
TEST(OutageSim, TrialsAreEnsembleDraws) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  const std::vector<hazard::Catalog> catalogs = SouthernEvents();
  OutageSimOptions options;
  options.trials = 400;
  options.seed = 31;
  options.damage_radius_scale = 0.75;
  const OutageSimReport report =
      RunOutageSimulation(engine, catalogs, traffic, options);

  EnsembleOptions draws;
  draws.scenarios = options.trials;
  draws.seed = options.seed;
  draws.damage_radius_scale = options.damage_radius_scale;
  draws.center_jitter = 0.0;
  draws.fringe_fail_scale = 0.0;
  draws.link_cut_prob = 0.0;
  const EnsembleEngine sampler(engine, catalogs, draws);
  double pops = 0.0;
  for (std::uint64_t k = 0; k < options.trials; ++k) {
    const Scenario scenario = sampler.Draw(k);
    EXPECT_TRUE(scenario.severed_edges.empty());
    pops += static_cast<double>(scenario.failed_nodes.size());
  }
  ASSERT_GT(pops, 0.0);
  EXPECT_EQ(report.mean_pops_disabled,
            pops / static_cast<double>(options.trials));
}

TEST(OutageSim, EndpointLossIndependentOfRouting) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine risky(graph, core::RiskParams{1e5, 0});
  const core::RouteEngine shortest(graph, core::RiskParams{0, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  OutageSimOptions options;
  options.trials = 300;
  const OutageSimReport a =
      RunOutageSimulation(risky, SouthernEvents(), traffic, options);
  const OutageSimReport b =
      RunOutageSimulation(shortest, SouthernEvents(), traffic, options);
  EXPECT_DOUBLE_EQ(a.endpoint_loss, b.endpoint_loss);
  EXPECT_DOUBLE_EQ(a.mean_pops_disabled, b.mean_pops_disabled);
}

TEST(OutageSim, AffectedRatioCoversZeroShortestPathLoss) {
  OutageSimReport report;
  report.shortest_path_affected = 0.4;
  report.riskroute_affected = 0.1;
  EXPECT_EQ(report.AffectedRatio(), 0.25);
  report.shortest_path_affected = 0.0;
  report.riskroute_affected = 0.0;
  EXPECT_EQ(report.AffectedRatio(), 1.0);
  report.riskroute_affected = 0.1;
  EXPECT_EQ(report.AffectedRatio(), std::numeric_limits<double>::infinity());
}

TEST(OutageSim, Validation) {
  const RiskGraph graph = CorridorGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  const TrafficMatrix traffic = TrafficMatrix::Gravity(graph);
  EXPECT_THROW((void)RunOutageSimulation(engine, {}, traffic), InvalidArgument);
  OutageSimOptions options;
  options.trials = 0;
  EXPECT_THROW(
      (void)RunOutageSimulation(engine, SouthernEvents(), traffic, options),
      InvalidArgument);
  const TrafficMatrix wrong = TrafficMatrix::Uniform(7);
  EXPECT_THROW((void)RunOutageSimulation(engine, SouthernEvents(), wrong),
               InvalidArgument);
}

TEST(OutageSim, DamageRadiiDefinedForAllTypes) {
  for (const hazard::HazardType type : hazard::AllHazardTypes()) {
    EXPECT_GT(hazard::DefaultDamageRadiusMiles(type), 0.0);
  }
  // Hurricanes out-damage localized wind events.
  EXPECT_GT(hazard::DefaultDamageRadiusMiles(hazard::HazardType::kFemaHurricane),
            hazard::DefaultDamageRadiusMiles(hazard::HazardType::kNoaaWind));
}

// ---------- shared risk ----------

topology::Network CityPairNetwork(const char* name, double lat1, double lon1,
                                  double lat2, double lon2) {
  topology::Network net(name, topology::NetworkKind::kRegional);
  net.AddPop({"A, XX", geo::GeoPoint(lat1, lon1)});
  net.AddPop({"B, XX", geo::GeoPoint(lat2, lon2)});
  net.AddLink(0, 1);
  return net;
}

TEST(SharedRisk, CoLocatedNetworksShareFate) {
  // Both networks sit on the event cluster: high joint probability, high
  // correlation, full overlap.
  const auto a = CityPairNetwork("A", 32.0, -95.0, 32.3, -95.2);
  const auto b = CityPairNetwork("B", 32.1, -95.1, 32.2, -94.9);
  provision::SharedRiskOptions options;
  options.trials = 1000;
  options.damage_radius_miles = 100.0;
  const auto report =
      provision::AnalyzeSharedRisk(a, b, SouthernEvents(), options);
  EXPECT_GT(report.overlap_a_in_b, 0.9);
  EXPECT_GT(report.outage_probability_a, 0.5);
  EXPECT_GT(report.joint_outage_probability,
            0.9 * report.outage_probability_a);
  EXPECT_GT(report.outage_correlation, 0.8);
  EXPECT_GE(report.JointLift(), 1.0);
}

TEST(SharedRisk, DisjointNetworksDoNotShareFate) {
  const auto a = CityPairNetwork("A", 32.0, -95.0, 32.3, -95.2);   // on events
  const auto b = CityPairNetwork("B", 47.0, -120.0, 46.5, -119.0); // far away
  provision::SharedRiskOptions options;
  options.trials = 1000;
  options.damage_radius_miles = 100.0;
  const auto report =
      provision::AnalyzeSharedRisk(a, b, SouthernEvents(), options);
  EXPECT_DOUBLE_EQ(report.overlap_a_in_b, 0.0);
  EXPECT_DOUBLE_EQ(report.outage_probability_b, 0.0);
  EXPECT_DOUBLE_EQ(report.joint_outage_probability, 0.0);
}

TEST(SharedRisk, Validation) {
  const auto a = CityPairNetwork("A", 32.0, -95.0, 32.3, -95.2);
  EXPECT_THROW((void)provision::AnalyzeSharedRisk(a, a, {}, {}),
               InvalidArgument);
  provision::SharedRiskOptions options;
  options.trials = 0;
  EXPECT_THROW(
      (void)provision::AnalyzeSharedRisk(a, a, SouthernEvents(), options),
      InvalidArgument);
}

TEST(SharedRisk, PinnedTrialStreamRegression) {
  // Byte-pinned report: trial t draws from PhiloxRng(seed, t), so the
  // numbers below are a pure function of (networks, catalog, options).
  // The pre-fix code fed one shared mt19937_64 through every trial,
  // which silently re-ordered draws under any loop restructuring; these
  // EXPECT_EQs fail if anyone reintroduces sequential-stream sampling or
  // perturbs the per-trial draw order.
  const auto a = CityPairNetwork("A", 32.0, -95.0, 32.3, -95.2);
  const auto b = CityPairNetwork("B", 32.1, -95.1, 33.5, -93.5);
  provision::SharedRiskOptions options;
  options.trials = 256;
  options.damage_radius_miles = 60.0;
  const auto report =
      provision::AnalyzeSharedRisk(a, b, SouthernEvents(), options);
  EXPECT_EQ(report.trials, 256u);
  EXPECT_EQ(report.outage_probability_a, 0.70703125);
  EXPECT_EQ(report.outage_probability_b, 0.671875);
  EXPECT_EQ(report.joint_outage_probability, 0.6640625);
  EXPECT_EQ(report.outage_correlation, 0.88456023318033661);
}

// ---------- hazard type weights (paper Section 5.2 extension) ----------

TEST(TypeWeights, WeightsScaleAggregateRisk) {
  util::Rng rng(9);
  std::vector<hazard::Catalog> catalogs;
  catalogs.emplace_back(
      hazard::HazardType::kFemaHurricane,
      hazard::SampleMixture({{geo::GeoPoint(30.0, -90.0), 1.0, 80.0}}, 200,
                            rng));
  catalogs.emplace_back(
      hazard::HazardType::kFemaTornado,
      hazard::SampleMixture({{geo::GeoPoint(36.0, -97.0), 1.0, 80.0}}, 200,
                            rng));
  hazard::HistoricalRiskField field(catalogs, {60.0, 60.0});
  const geo::GeoPoint gulf(30.0, -90.0);
  const double hurricane_part =
      field.RiskAt(gulf, hazard::HazardType::kFemaHurricane);
  const double tornado_part =
      field.RiskAt(gulf, hazard::HazardType::kFemaTornado);

  field.SetTypeWeights({3.0, 0.0});
  EXPECT_NEAR(field.RiskAt(gulf), 3.0 * hurricane_part, 1e-15);
  EXPECT_DOUBLE_EQ(field.RiskAt(gulf, hazard::HazardType::kFemaTornado), 0.0);

  field.SetTypeWeights({1.0, 1.0});
  EXPECT_NEAR(field.RiskAt(gulf), hurricane_part + tornado_part, 1e-15);
}

TEST(TypeWeights, Validation) {
  util::Rng rng(10);
  std::vector<hazard::Catalog> catalogs;
  catalogs.emplace_back(
      hazard::HazardType::kFemaStorm,
      hazard::SampleMixture({{geo::GeoPoint(38.0, -95.0), 1.0, 100.0}}, 100,
                            rng));
  hazard::HistoricalRiskField field(catalogs, {60.0});
  EXPECT_THROW(field.SetTypeWeights({1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(field.SetTypeWeights({-1.0}), InvalidArgument);
  EXPECT_NO_THROW(field.SetTypeWeights({2.5}));
  EXPECT_EQ(field.type_weights().size(), 1u);
}

}  // namespace
}  // namespace riskroute::sim

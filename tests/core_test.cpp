// Unit and property tests for the core RiskRoute engine: the risk graph,
// Dijkstra, the Equation 1 metric, Equation 3 optimization and the
// Equation 5/6 ratio computations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "geo/distance.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace riskroute::core {
namespace {

/// Builds the canonical test graph: a safe northern detour and a risky
/// direct southern corridor between A (west) and D (east).
///
///        B(safe)
///       /       \
///  A --+---------+-- D
///       \       /
///        C(risky)
RiskGraph DetourGraph() {
  RiskGraph graph;
  graph.AddNode(RiskNode{"A", geo::GeoPoint(35.0, -100.0), 0.3, 0.0, 0.0});
  graph.AddNode(RiskNode{"B", geo::GeoPoint(39.0, -95.0), 0.2, 0.001, 0.0});
  graph.AddNode(RiskNode{"C", geo::GeoPoint(32.0, -95.0), 0.2, 0.10, 0.0});
  graph.AddNode(RiskNode{"D", geo::GeoPoint(35.0, -90.0), 0.3, 0.0, 0.0});
  graph.AddEdgeByDistance(0, 1);
  graph.AddEdgeByDistance(1, 3);
  graph.AddEdgeByDistance(0, 2);
  graph.AddEdgeByDistance(2, 3);
  return graph;
}

/// Eq 5 / Eq 6 ratios with every PoP as both source and target.
RatioReport IntradomainRatios(const RiskGraph& graph, const RiskParams& params,
                              util::ThreadPool* pool = nullptr) {
  std::vector<std::size_t> everyone(graph.node_count());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return RouteEngine(graph, params).ComputeRatios(everyone, everyone, pool);
}

/// Eq 3 minimum bit-risk route and the geographic shortest path between
/// one pair, both measured under the engine's Eq 1 metric.
struct RoutePair {
  PathMetrics risk_route;
  PathMetrics shortest;
  Path risk_path;
  Path shortest_path;
};

RoutePair RouteBoth(const RouteEngine& engine, std::size_t i, std::size_t j) {
  RoutePair routed;
  routed.risk_path = *engine.FindPath(i, j, engine.Alpha(i, j));
  routed.shortest_path = *engine.FindPath(i, j, /*alpha=*/0.0);
  routed.risk_route = engine.Measure(routed.risk_path);
  routed.shortest = engine.Measure(routed.shortest_path);
  return routed;
}

TEST(RiskGraph, EdgeBookkeeping) {
  RiskGraph graph = DetourGraph();
  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.directed_edge_count(), 8u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 0));
  EXPECT_FALSE(graph.HasEdge(0, 3));
  graph.AddEdge(0, 3, 500.0);
  EXPECT_TRUE(graph.HasEdge(0, 3));
  graph.RemoveEdge(0, 3);
  EXPECT_FALSE(graph.HasEdge(0, 3));
  EXPECT_THROW(graph.RemoveEdge(0, 3), InvalidArgument);
}

TEST(RiskGraph, Validation) {
  RiskGraph graph = DetourGraph();
  EXPECT_THROW(graph.AddEdge(0, 0, 10), InvalidArgument);
  EXPECT_THROW(graph.AddEdge(0, 9, 10), InvalidArgument);
  EXPECT_THROW(graph.AddEdge(0, 3, -1), InvalidArgument);
  EXPECT_THROW((void)graph.node(9), InvalidArgument);
  EXPECT_THROW((void)graph.OutEdges(9), InvalidArgument);
  EXPECT_THROW(graph.SetForecastRisks({1.0}), InvalidArgument);
}

TEST(RiskGraph, DuplicateEdgesIgnored) {
  RiskGraph graph = DetourGraph();
  const std::size_t before = graph.directed_edge_count();
  graph.AddEdge(0, 1, 999.0);
  EXPECT_EQ(graph.directed_edge_count(), before);
}

TEST(RiskGraph, ForecastRiskLifecycle) {
  RiskGraph graph = DetourGraph();
  graph.SetForecastRisks({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(graph.node(2).forecast_risk, 3.0);
  graph.ClearForecastRisks();
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    EXPECT_DOUBLE_EQ(graph.node(i).forecast_risk, 0.0);
  }
}

TEST(RiskGraph, AddEdgesUncheckedMatchesAddEdgeSequence) {
  // The bulk path must reproduce exactly what a sequence of AddEdge calls
  // builds — same adjacency order (first occurrence wins), duplicates in
  // either orientation dropped — because edge order feeds Dijkstra
  // tie-breaking downstream.
  const std::vector<WeightedLink> links = {
      {0, 1, 100.0}, {2, 3, 200.0}, {1, 0, 999.0},  // reversed duplicate
      {1, 3, 300.0}, {2, 3, 888.0},                 // same-orientation dup
      {0, 2, 400.0},
  };
  RiskGraph bulk = DetourGraph();
  RiskGraph incremental = DetourGraph();
  // Strip DetourGraph's edges by rebuilding node-only copies.
  RiskGraph bulk_nodes, incr_nodes;
  for (std::size_t i = 0; i < bulk.node_count(); ++i) {
    bulk_nodes.AddNode(bulk.node(i));
    incr_nodes.AddNode(incremental.node(i));
  }
  bulk_nodes.AddEdgesUnchecked(links);
  for (const WeightedLink& link : links) {
    incr_nodes.AddEdge(link.a, link.b, link.miles);
  }
  ASSERT_EQ(bulk_nodes.directed_edge_count(), 8u);
  ASSERT_EQ(bulk_nodes.directed_edge_count(),
            incr_nodes.directed_edge_count());
  for (std::size_t v = 0; v < bulk_nodes.node_count(); ++v) {
    const auto& a = bulk_nodes.OutEdges(v);
    const auto& b = incr_nodes.OutEdges(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to) << "node " << v << " slot " << k;
      EXPECT_DOUBLE_EQ(a[k].miles, b[k].miles);
    }
  }
}

TEST(RiskGraph, AddEdgesUncheckedValidation) {
  RiskGraph graph = DetourGraph();
  const std::vector<WeightedLink> out_of_range = {{0, 9, 10.0}};
  EXPECT_THROW(graph.AddEdgesUnchecked(out_of_range), InvalidArgument);
  const std::vector<WeightedLink> self_edge = {{2, 2, 10.0}};
  EXPECT_THROW(graph.AddEdgesUnchecked(self_edge), InvalidArgument);
  const std::vector<WeightedLink> negative = {{0, 3, -1.0}};
  EXPECT_THROW(graph.AddEdgesUnchecked(negative), InvalidArgument);
  // A throwing batch must not have inserted anything.
  EXPECT_FALSE(graph.HasEdge(0, 3));
}

// ---------- Dijkstra ----------

TEST(Dijkstra, FindsShortestDistancePath) {
  const RiskGraph graph = DetourGraph();
  const RouteEngine engine(graph, RiskParams{});
  const auto path = engine.FindPath(0, 3, /*alpha=*/0.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 3u);
  EXPECT_EQ(path->size(), 3u);  // one intermediate node
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  RiskGraph graph;
  graph.AddNode(RiskNode{"A", geo::GeoPoint(30, -90), 0.5, 0, 0});
  graph.AddNode(RiskNode{"B", geo::GeoPoint(40, -100), 0.5, 0, 0});
  const RouteEngine engine(graph, RiskParams{});
  EXPECT_FALSE(engine.FindPath(0, 1, /*alpha=*/0.0).has_value());
}

TEST(Dijkstra, SourceEqualsTarget) {
  const RouteEngine engine(DetourGraph(), RiskParams{});
  DijkstraWorkspace ws;
  engine.RunDistance(ws, 2, 2);
  EXPECT_TRUE(ws.Reached(2));
  EXPECT_DOUBLE_EQ(ws.DistanceTo(2), 0.0);
  EXPECT_EQ(ws.PathTo(2), Path{2});
}

TEST(Dijkstra, DistancesAreMonotoneAlongParents) {
  const RiskGraph graph = DetourGraph();
  const RouteEngine engine(graph, RiskParams{});
  DijkstraWorkspace ws;
  engine.RunDistance(ws, 0);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    ASSERT_TRUE(ws.Reached(v));
    const Path path = ws.PathTo(v);
    double along = 0.0;
    for (std::size_t k = 1; k < path.size(); ++k) {
      for (const RiskEdge& e : graph.OutEdges(path[k - 1])) {
        if (e.to == path[k]) along += e.miles;
      }
    }
    EXPECT_NEAR(along, ws.DistanceTo(v), 1e-9);
  }
}

TEST(Dijkstra, Validation) {
  const RouteEngine engine(DetourGraph(), RiskParams{});
  DijkstraWorkspace ws;
  EXPECT_THROW(engine.RunDistance(ws, 9), InvalidArgument);
  engine.RunDistance(ws, 0);
  EXPECT_THROW((void)ws.DistanceTo(99), InvalidArgument);
}

// ---------- Eq 1 on the frozen engine ----------

TEST(RiskRouter, PathBitRiskMilesMatchesEquationOne) {
  const RiskGraph graph = DetourGraph();
  const RiskParams params{1e4, 1e3};
  const RouteEngine engine(graph, params);
  const Path path = {0, 2, 3};  // through the risky node C
  const double alpha = 0.3 + 0.3;  // c_A + c_D
  double expected = 0.0;
  // hop A->C: d + alpha * lambda_h * oh(C)
  expected += geo::GreatCircleMiles(graph.node(0).location,
                                    graph.node(2).location) +
              alpha * 1e4 * 0.10;
  // hop C->D: d + alpha * lambda_h * oh(D)
  expected += geo::GreatCircleMiles(graph.node(2).location,
                                    graph.node(3).location) +
              alpha * 1e4 * 0.0;
  EXPECT_NEAR(engine.PathBitRiskMiles(path), expected, 1e-9);
}

TEST(RiskRouter, ForecastRiskEntersTheMetric) {
  RiskGraph graph = DetourGraph();
  const RiskParams params{0.0, 1e3};  // forecast-only
  graph.SetForecastRisks({0, 0, 50, 0});
  const RouteEngine engine(graph, params);
  const Path path = {0, 2, 3};
  const double alpha = 0.6;
  const double miles = engine.PathMiles(path);
  EXPECT_NEAR(engine.PathBitRiskMiles(path), miles + alpha * 1e3 * 50, 1e-9);
}

TEST(RiskRouter, RejectsNegativeLambdas) {
  const RiskGraph graph = DetourGraph();
  EXPECT_THROW(RouteEngine(graph, RiskParams{-1, 0}), InvalidArgument);
  EXPECT_THROW(RouteEngine(graph, RiskParams{0, -1}), InvalidArgument);
}

TEST(RiskRouter, PathValidation) {
  const RouteEngine engine(DetourGraph(), RiskParams{});
  EXPECT_THROW((void)engine.PathBitRiskMiles({}), InvalidArgument);
  EXPECT_THROW((void)engine.PathBitRiskMiles({0, 3}), InvalidArgument);
  EXPECT_THROW((void)engine.PathMiles({0, 3}), InvalidArgument);
}

TEST(RiskRouter, AvoidsRiskWhenLambdaLarge) {
  const RiskGraph graph = DetourGraph();
  // Small lambda: geographic shortest (through C, the southern node, or B
  // — whichever is shorter) wins; large lambda: the safe B detour wins.
  const RouteEngine timid(graph, RiskParams{1e5, 0});
  EXPECT_EQ(RouteBoth(timid, 0, 3).risk_path, (Path{0, 1, 3}));  // safe B

  // With zero lambdas the min bit-risk route IS the shortest route.
  const RoutePair neutral =
      RouteBoth(RouteEngine(graph, RiskParams{0, 0}), 0, 3);
  EXPECT_EQ(neutral.risk_path, neutral.shortest_path);
}

TEST(RiskRouter, MinRiskNeverExceedsShortestBitRisk) {
  const RiskGraph graph = DetourGraph();
  for (const double lambda : {0.0, 1e2, 1e4, 1e6}) {
    const RouteEngine engine(graph, RiskParams{lambda, 0});
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      for (std::size_t j = 0; j < graph.node_count(); ++j) {
        if (i == j) continue;
        const RoutePair routed = RouteBoth(engine, i, j);
        EXPECT_LE(routed.risk_route.bit_risk_miles,
                  routed.shortest.bit_risk_miles + 1e-9);
        EXPECT_GE(routed.risk_route.miles, routed.shortest.miles - 1e-9);
      }
    }
  }
}

// ---------- ratios ----------

TEST(Ratios, ZeroLambdaGivesZeroRatios) {
  const RiskGraph graph = DetourGraph();
  const RatioReport report = IntradomainRatios(graph, RiskParams{0, 0});
  EXPECT_NEAR(report.risk_reduction_ratio, 0.0, 1e-12);
  EXPECT_NEAR(report.distance_increase_ratio, 0.0, 1e-12);
  EXPECT_EQ(report.pair_count, 12u);  // 4*3 ordered pairs
}

TEST(Ratios, RatiosNonNegativeAndBounded) {
  const RiskGraph graph = DetourGraph();
  for (const double lambda : {1e2, 1e4, 1e6}) {
    const RatioReport report =
        IntradomainRatios(graph, RiskParams{lambda, 0});
    EXPECT_GE(report.risk_reduction_ratio, -1e-12);
    EXPECT_LT(report.risk_reduction_ratio, 1.0);
    EXPECT_GE(report.distance_increase_ratio, -1e-12);
  }
}

TEST(Ratios, MonotoneNondecreasingInLambdaOnDetourGraph) {
  const RiskGraph graph = DetourGraph();
  double previous_rr = -1.0;
  for (const double lambda : {1e1, 1e2, 1e3, 1e4, 1e5, 1e6}) {
    const RatioReport report =
        IntradomainRatios(graph, RiskParams{lambda, 0});
    EXPECT_GE(report.risk_reduction_ratio, previous_rr - 1e-9)
        << "lambda " << lambda;
    previous_rr = report.risk_reduction_ratio;
  }
}

TEST(Ratios, ParallelMatchesSequential) {
  const RiskGraph graph = DetourGraph();
  util::ThreadPool pool(4);
  const RiskParams params{1e4, 0};
  const RatioReport seq = IntradomainRatios(graph, params, nullptr);
  const RatioReport par = IntradomainRatios(graph, params, &pool);
  EXPECT_DOUBLE_EQ(seq.risk_reduction_ratio, par.risk_reduction_ratio);
  EXPECT_DOUBLE_EQ(seq.distance_increase_ratio, par.distance_increase_ratio);
  EXPECT_EQ(seq.pair_count, par.pair_count);
}

TEST(Ratios, SourceTargetSubsets) {
  const RiskGraph graph = DetourGraph();
  const std::vector<std::size_t> sources{0};
  const std::vector<std::size_t> targets{3};
  const RatioReport report =
      RouteEngine(graph, RiskParams{1e4, 0}).ComputeRatios(sources, targets);
  EXPECT_EQ(report.pair_count, 1u);
}

TEST(Ratios, DisconnectedPairsSkipped) {
  RiskGraph graph = DetourGraph();
  graph.AddNode(RiskNode{"island", geo::GeoPoint(45, -70), 0.1, 0, 0});
  const RatioReport report = IntradomainRatios(graph, RiskParams{1e4, 0});
  EXPECT_EQ(report.pair_count, 12u);  // island contributes nothing
}

// ---------- aggregate objectives ----------

TEST(Aggregate, SumMinBitRiskMatchesManualSum) {
  const RiskGraph graph = DetourGraph();
  const RouteEngine engine(graph, RiskParams{1e4, 0});
  double expected = 0.0;
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    for (std::size_t j = i + 1; j < graph.node_count(); ++j) {
      expected += RouteBoth(engine, i, j).risk_route.bit_risk_miles;
    }
  }
  EXPECT_NEAR(engine.AggregateMinBitRisk(), expected, 1e-9);
}

TEST(Aggregate, AddingAnEdgeNeverIncreasesObjective) {
  RiskGraph graph = DetourGraph();
  const RiskParams params{1e4, 0};
  const double before = RouteEngine(graph, params).AggregateMinBitRisk();
  graph.AddEdgeByDistance(0, 3);
  const double after = RouteEngine(graph, params).AggregateMinBitRisk();
  EXPECT_LE(after, before + 1e-9);
}

TEST(Aggregate, SumMinBitRiskOverSubsets) {
  const RiskGraph graph = DetourGraph();
  const RouteEngine engine(graph, RiskParams{1e4, 0});
  const std::vector<std::size_t> sources{0, 1};
  const std::vector<std::size_t> targets{3};
  const double got = engine.SumMinBitRisk(sources, targets);
  const double expected = RouteBoth(engine, 0, 3).risk_route.bit_risk_miles +
                          RouteBoth(engine, 1, 3).risk_route.bit_risk_miles;
  EXPECT_NEAR(got, expected, 1e-9);
}

// ---------- lambda sweep property (TEST_P) ----------

class LambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LambdaSweep, RiskRouteDominatesShortestPathInBitRisk) {
  const double lambda = GetParam();
  const RouteEngine engine(DetourGraph(), RiskParams{lambda, 0});
  for (std::size_t i = 0; i < engine.node_count(); ++i) {
    for (std::size_t j = 0; j < engine.node_count(); ++j) {
      if (i == j) continue;
      const RoutePair routed = RouteBoth(engine, i, j);
      EXPECT_LE(routed.risk_route.bit_risk_miles,
                routed.shortest.bit_risk_miles + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         ::testing::Values(0.0, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6,
                                           1e8));

}  // namespace
}  // namespace riskroute::core

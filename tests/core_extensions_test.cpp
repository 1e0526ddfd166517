// Tests for the core extensions: Yen's k-shortest paths, the
// multi-objective (latency vs risk) router, IP-FRR / MPLS backup paths and
// the OSPF composite-weight export.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/backup_paths.h"
#include "core/k_shortest.h"
#include "core/multi_objective.h"
#include "core/ospf_export.h"
#include "core/route_engine.h"
#include "tests/oracle/reference_routing.h"
#include "util/error.h"

namespace riskroute::core {
namespace {

/// Diamond with a tail:   0 - 1 - 3 - 4   and   0 - 2 - 3.
/// Node 2's corridor is longer but far less risky than node 1's.
RiskGraph Diamond() {
  RiskGraph graph;
  graph.AddNode(RiskNode{"S", geo::GeoPoint(35.0, -100.0), 0.25, 0.00, 0.0});
  graph.AddNode(RiskNode{"risky", geo::GeoPoint(35.5, -97.0), 0.25, 0.20, 0.0});
  graph.AddNode(RiskNode{"safe", geo::GeoPoint(38.5, -97.0), 0.25, 0.001, 0.0});
  graph.AddNode(RiskNode{"M", geo::GeoPoint(35.0, -94.0), 0.15, 0.01, 0.0});
  graph.AddNode(RiskNode{"T", geo::GeoPoint(35.0, -91.0), 0.10, 0.00, 0.0});
  graph.AddEdgeByDistance(0, 1);
  graph.AddEdgeByDistance(1, 3);
  graph.AddEdgeByDistance(0, 2);
  graph.AddEdgeByDistance(2, 3);
  graph.AddEdgeByDistance(3, 4);
  return graph;
}

/// The Diamond frozen for plain-distance routing (alpha = 0).
RouteEngine DiamondEngine(const RiskParams& params = {}) {
  return RouteEngine(Diamond(), params);
}

// ---------- k shortest paths ----------

TEST(KShortest, EnumeratesBothDiamondArms) {
  const auto paths = KShortestPaths(DiamondEngine(), 0, 3, 4, 0.0);
  ASSERT_EQ(paths.size(), 2u);  // only two loopless 0->3 paths exist
  EXPECT_EQ(paths[0].path, (Path{0, 1, 3}));  // southern arm is shorter
  EXPECT_EQ(paths[1].path, (Path{0, 2, 3}));
  EXPECT_LT(paths[0].weight, paths[1].weight);
}

TEST(KShortest, WeightsAscending) {
  const auto paths = KShortestPaths(DiamondEngine(), 0, 4, 10, 0.0);
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].weight, paths[i - 1].weight - 1e-9);
  }
}

TEST(KShortest, PathsAreLooplessAndUnique) {
  const auto paths = KShortestPaths(DiamondEngine(), 0, 4, 10, 0.0);
  std::set<Path> seen;
  for (const WeightedPath& wp : paths) {
    EXPECT_TRUE(seen.insert(wp.path).second) << "duplicate path";
    std::set<std::size_t> nodes(wp.path.begin(), wp.path.end());
    EXPECT_EQ(nodes.size(), wp.path.size()) << "loop in path";
    EXPECT_EQ(wp.path.front(), 0u);
    EXPECT_EQ(wp.path.back(), 4u);
  }
}

TEST(KShortest, FirstPathMatchesDijkstra) {
  const RiskGraph graph = Diamond();
  const RiskParams params{0, 0};
  const auto paths = KShortestPaths(RouteEngine(graph, params), 0, 4, 1, 0.0);
  oracle::Dijkstra reference;
  reference.Run(graph, 0, oracle::BitRiskWeight{&graph, params, 0.0}, 4);
  const Path direct = reference.PathTo(4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path, direct);
}

TEST(KShortest, SourceEqualsTargetAndValidation) {
  const RouteEngine engine = DiamondEngine();
  const auto trivial = KShortestPaths(engine, 2, 2, 3, 0.0);
  ASSERT_EQ(trivial.size(), 1u);
  EXPECT_EQ(trivial[0].path, Path{2});
  EXPECT_THROW((void)KShortestPaths(engine, 0, 4, 0, 0.0), InvalidArgument);
  EXPECT_THROW((void)KShortestPaths(engine, 0, 99, 2, 0.0), InvalidArgument);
}

TEST(KShortest, DisconnectedReturnsEmpty) {
  RiskGraph graph;
  graph.AddNode(RiskNode{"A", geo::GeoPoint(30, -90), 0.5, 0, 0});
  graph.AddNode(RiskNode{"B", geo::GeoPoint(40, -100), 0.5, 0, 0});
  EXPECT_TRUE(
      KShortestPaths(RouteEngine(graph, RiskParams{}), 0, 1, 3, 0.0).empty());
}

// ---------- multi-objective ----------

TEST(MultiObjective, ParetoFrontEndpointsAreExtremes) {
  const RouteEngine engine(Diamond(), RiskParams{1e5, 0});
  const MultiObjectiveRouter router(engine);
  const auto front = router.ParetoFront(0, 4);
  ASSERT_GE(front.size(), 2u);
  // Front is ascending latency, descending risk; every successive entry
  // trades latency for risk.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].latency_ms, front[i - 1].latency_ms);
    EXPECT_LT(front[i].bit_risk_miles, front[i - 1].bit_risk_miles);
  }
  // Fastest front entry == geographic shortest path.
  EXPECT_EQ(front.front().path, *engine.FindPath(0, 4, /*alpha=*/0.0));
}

TEST(MultiObjective, LatencyBudgetBinds) {
  const RouteEngine engine(Diamond(), RiskParams{1e5, 0});
  const MultiObjectiveRouter router(engine);
  const auto front = router.ParetoFront(0, 4);
  ASSERT_GE(front.size(), 2u);
  // A budget below the safe detour's latency forces the fast risky path.
  const auto tight =
      router.MinRiskWithinLatency(0, 4, front.front().latency_ms + 1e-9);
  ASSERT_TRUE(tight.has_value());
  EXPECT_EQ(tight->path, front.front().path);
  // A generous budget buys the min-risk path.
  const auto loose = router.MinRiskWithinLatency(0, 4, 1e9);
  ASSERT_TRUE(loose.has_value());
  EXPECT_DOUBLE_EQ(loose->bit_risk_miles, front.back().bit_risk_miles);
  // An impossible budget yields nothing.
  EXPECT_FALSE(router.MinRiskWithinLatency(0, 4, 1e-6).has_value());
}

TEST(MultiObjective, ScalarizationSweepsTheFront) {
  const RouteEngine engine(Diamond(), RiskParams{1e5, 0});
  const MultiObjectiveRouter router(engine);
  const auto latency_pick = router.Scalarized(0, 4, 0.0);
  const auto risk_pick = router.Scalarized(0, 4, 1.0);
  ASSERT_TRUE(latency_pick && risk_pick);
  EXPECT_LE(latency_pick->latency_ms, risk_pick->latency_ms);
  EXPECT_GE(latency_pick->bit_risk_miles, risk_pick->bit_risk_miles);
  EXPECT_THROW((void)router.Scalarized(0, 4, 1.5), InvalidArgument);
}

TEST(MultiObjective, LatencyModelIsLinearInMiles) {
  EXPECT_DOUBLE_EQ(MilesToLatencyMs(0), 0.0);
  EXPECT_NEAR(MilesToLatencyMs(1000), 8.2, 0.01);
}

// ---------- backup paths ----------

TEST(BackupPaths, RoutingTableNextHopsConsistent) {
  const RiskGraph graph = Diamond();
  const RoutingTable table = BuildRoutingTable(DiamondEngine(), 0.0);
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    EXPECT_EQ(table.next_hop[s][s], s);
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      if (d == s) continue;
      const std::size_t hop = table.next_hop[s][d];
      ASSERT_NE(hop, RoutingTable::kUnreachable);
      EXPECT_TRUE(graph.HasEdge(s, hop));
      // Bellman consistency: dist(s,d) = w(s,hop) + dist(hop,d).
      double w = 0.0;
      for (const RiskEdge& e : graph.OutEdges(s)) {
        if (e.to == hop) w = e.miles;
      }
      EXPECT_NEAR(table.dist[s][d], w + table.dist[hop][d], 1e-6);
    }
  }
}

TEST(BackupPaths, LfaSatisfiesLoopFreeCondition) {
  const RiskGraph graph = Diamond();
  const RouteEngine engine = DiamondEngine();
  const RoutingTable table = BuildRoutingTable(engine, 0.0);
  const auto lfas = ComputeLfas(engine, table);
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      if (d == s) continue;
      for (const std::size_t n : lfas[s][d].alternates) {
        EXPECT_NE(n, lfas[s][d].primary_next_hop);
        EXPECT_LT(table.dist[n][d], table.dist[n][s] + table.dist[s][d]);
      }
    }
  }
}

TEST(BackupPaths, DiamondSourceHasAlternateForMergePoint) {
  // From S, destination M: primary goes via one arm, the other arm's head
  // is a valid LFA.
  const RouteEngine engine = DiamondEngine();
  const RoutingTable table = BuildRoutingTable(engine, 0.0);
  const auto lfas = ComputeLfas(engine, table);
  EXPECT_FALSE(lfas[0][3].alternates.empty());
  EXPECT_GT(LfaCoverage(lfas), 0.0);
  EXPECT_LE(LfaCoverage(lfas), 1.0);
}

TEST(BackupPaths, LinkBypassAvoidsTheLink) {
  const RouteEngine engine = DiamondEngine();
  const auto bypass = LinkBypass(engine, 0, 1, 0.0);
  ASSERT_TRUE(bypass.has_value());
  // Must reach 1 without using edge (0,1) directly.
  EXPECT_EQ(bypass->front(), 0u);
  EXPECT_EQ(bypass->back(), 1u);
  ASSERT_GE(bypass->size(), 3u);
  EXPECT_NE((*bypass)[1], 1u);
  EXPECT_THROW((void)LinkBypass(engine, 0, 4, 0.0),
               InvalidArgument);  // link does not exist
}

TEST(BackupPaths, LinkBypassNulloptWhenCut) {
  // A bridge link has no bypass.
  RiskGraph graph;
  graph.AddNode(RiskNode{"A", geo::GeoPoint(30, -95), 0.5, 0, 0});
  graph.AddNode(RiskNode{"B", geo::GeoPoint(31, -94), 0.5, 0, 0});
  graph.AddEdgeByDistance(0, 1);
  EXPECT_FALSE(
      LinkBypass(RouteEngine(graph, RiskParams{}), 0, 1, 0.0).has_value());
}

TEST(BackupPaths, NodeBypassAvoidsProtectedNode) {
  const RouteEngine engine = DiamondEngine();
  const auto bypass = NodeBypass(engine, 0, 3, /*protect=*/1, 0.0);
  ASSERT_TRUE(bypass.has_value());
  for (const std::size_t v : *bypass) EXPECT_NE(v, 1u);
  EXPECT_THROW((void)NodeBypass(engine, 0, 3, 0, 0.0), InvalidArgument);
  // A protected node the engine does not have must not silently leave the
  // path unprotected: on the line 0-1-2 the only route is 0 -> 1 -> 2.
  RiskGraph line;
  for (int i = 0; i < 3; ++i) {
    line.AddNode(RiskNode{"p" + std::to_string(i),
                          geo::GeoPoint(35.0, -100.0 + i), 1.0 / 3, 0, 0});
  }
  line.AddEdgeByDistance(0, 1);
  line.AddEdgeByDistance(1, 2);
  EXPECT_THROW(
      (void)NodeBypass(RouteEngine(line, RiskParams{}), 0, 2, 99, 0.0),
      InvalidArgument);
}

TEST(BackupPaths, NodeBypassNulloptWhenArticulation) {
  // Node 3 is the only way to 4; protecting it cuts T off.
  EXPECT_FALSE(NodeBypass(DiamondEngine(), 0, 4, 3, 0.0).has_value());
}

// ---------- ospf export ----------

constexpr RiskParams kOspfParams{1e5, 1e3};

TEST(OspfExport, CostsCoverEveryLinkOnce) {
  const RiskGraph graph = Diamond();
  const auto costs = ComputeOspfCosts(DiamondEngine(kOspfParams));
  EXPECT_EQ(costs.size(), 5u);  // five undirected links
  for (const OspfLinkCost& c : costs) {
    EXPECT_LT(c.a, c.b);
    EXPECT_TRUE(graph.HasEdge(c.a, c.b));
    EXPECT_GE(c.cost, 1u);
    EXPECT_LE(c.cost, 65535u);
  }
}

TEST(OspfExport, RiskRaisesCost) {
  const auto costs = ComputeOspfCosts(DiamondEngine(RiskParams{1e5, 0}));
  // The two diamond arms have similar mileage; the risky arm's links must
  // cost more than the safe arm's.
  double risky_cost = 0, safe_cost = 0;
  for (const OspfLinkCost& c : costs) {
    if ((c.a == 0 && c.b == 1) || (c.a == 1 && c.b == 3)) {
      risky_cost += c.cost;
    }
    if ((c.a == 0 && c.b == 2) || (c.a == 2 && c.b == 3)) {
      safe_cost += c.cost;
    }
  }
  EXPECT_GT(risky_cost, safe_cost);
}

TEST(OspfExport, MaxWeightMapsToMaxCost) {
  const auto costs = ComputeOspfCosts(DiamondEngine(kOspfParams));
  std::uint16_t max_cost = 0;
  for (const OspfLinkCost& c : costs) max_cost = std::max(max_cost, c.cost);
  EXPECT_EQ(max_cost, 65535u);
}

TEST(OspfExport, ConfigRendersEveryLink) {
  const RouteEngine engine = DiamondEngine(kOspfParams);
  const auto costs = ComputeOspfCosts(engine);
  const std::string config = RenderOspfConfig(engine, costs);
  EXPECT_NE(config.find("\"S\""), std::string::npos);
  EXPECT_NE(config.find("cost "), std::string::npos);
  std::size_t lines = 0;
  for (const char ch : config) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, costs.size() + 1);  // header + one line per link
}

TEST(OspfExport, CompositeWeightShiftsShortestPaths) {
  // Under pure distance, S->M goes through the risky arm; under the
  // composite weight with large lambda it must switch to the safe arm.
  const RouteEngine engine = DiamondEngine(RiskParams{1e6, 0});
  OspfExportOptions options;
  options.alpha = 0.5;
  const auto risk_path = CompositeEngine(engine, options).FindPath(0, 3, 0.0);
  ASSERT_TRUE(risk_path.has_value());
  EXPECT_EQ(*risk_path, (Path{0, 2, 3}));
  // Plain distance is a frozen-plane weight; the engine owns that query.
  const auto plain = engine.FindPath(0, 3, /*alpha=*/0.0);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, (Path{0, 1, 3}));
}

}  // namespace
}  // namespace riskroute::core

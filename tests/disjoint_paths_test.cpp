// Tests for Suurballe/Bhandari disjoint path pairs, including brute-force
// optimality validation on random graphs.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/disjoint_paths.h"
#include "tests/oracle/reference_routing.h"
#include "util/rng.h"

namespace riskroute::core {
namespace {

/// Nodes on a diagonal, joined by great-circle links; frozen for
/// plain-distance routing (alpha = 0).
RouteEngine MakeEngine(std::size_t n,
                       const std::vector<std::pair<int, int>>& edges) {
  RiskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(RiskNode{"n" + std::to_string(i),
                           geo::GeoPoint(30.0 + static_cast<double>(i),
                                         -100.0 + 2.0 * static_cast<double>(i)),
                           1.0 / static_cast<double>(n), 0.0, 0.0});
  }
  for (const auto& [a, b] : edges) {
    graph.AddEdgeByDistance(static_cast<std::size_t>(a),
                            static_cast<std::size_t>(b));
  }
  return RouteEngine(graph, RiskParams{});
}

bool NodeDisjointInterior(const Path& a, const Path& b) {
  std::set<std::size_t> interior(a.begin() + 1, a.end() - 1);
  for (std::size_t i = 1; i + 1 < b.size(); ++i) {
    if (interior.contains(b[i])) return false;
  }
  return true;
}

bool EdgeDisjoint(const Path& a, const Path& b) {
  std::set<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 1; i < a.size(); ++i) {
    edges.insert({std::min(a[i - 1], a[i]), std::max(a[i - 1], a[i])});
  }
  for (std::size_t i = 1; i < b.size(); ++i) {
    if (edges.contains({std::min(b[i - 1], b[i]), std::max(b[i - 1], b[i])})) {
      return false;
    }
  }
  return true;
}

TEST(DisjointPaths, DiamondYieldsBothArms) {
  // 0-1-3 and 0-2-3.
  const RouteEngine engine = MakeEngine(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  const auto pair = FindDisjointPair(engine, 0, 3, 0.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE(NodeDisjointInterior(pair->first, pair->second));
  EXPECT_TRUE(EdgeDisjoint(pair->first, pair->second));
  EXPECT_EQ(pair->first.front(), 0u);
  EXPECT_EQ(pair->first.back(), 3u);
  EXPECT_EQ(pair->second.front(), 0u);
  EXPECT_EQ(pair->second.back(), 3u);
}

TEST(DisjointPaths, BridgeGraphHasNoPair) {
  // 0-1-2: single chain, no two disjoint paths.
  const RouteEngine engine = MakeEngine(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(FindDisjointPair(engine, 0, 2, 0.0).has_value());
}

TEST(DisjointPaths, SharedNodeRequiresNodeSplit) {
  // Two edge-disjoint paths exist only through shared node 2:
  //   0-1-2-3-5  and  0-4-2-6-5 (both pass node 2).
  const RouteEngine engine = MakeEngine(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 5}, {0, 4}, {4, 2}, {2, 6}, {6, 5}});
  const auto edge_pair =
      FindDisjointPair(engine, 0, 5, 0.0, Disjointness::kEdgeDisjoint);
  ASSERT_TRUE(edge_pair.has_value());
  EXPECT_TRUE(EdgeDisjoint(edge_pair->first, edge_pair->second));
  // Node-disjoint is impossible: node 2 is an articulation point.
  EXPECT_FALSE(FindDisjointPair(engine, 0, 5, 0.0, Disjointness::kNodeDisjoint)
                   .has_value());
}

TEST(DisjointPaths, SuurballeBeatsGreedyTwoStep) {
  // Classic Suurballe example: the greedy approach (shortest path, then
  // shortest in the pruned graph) can fail or be suboptimal; Suurballe's
  // joint optimization must find the true minimum pair. Trapezoid:
  //   0-1 cheap, 1-3 cheap (shortest path 0-1-3 uses both "bridging" arcs)
  //   0-2, 2-3, 1-2 arranged so the optimal pair is {0-1-2?-3...}.
  const RouteEngine engine =
      MakeEngine(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {1, 2}});
  const auto pair = FindDisjointPair(engine, 0, 3, 0.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE(NodeDisjointInterior(pair->first, pair->second));
  // The pair must be {0,1,3} and {0,2,3} (the only node-disjoint pair).
  const std::set<Path> got = {pair->first, pair->second};
  const std::set<Path> expected = {{0, 1, 3}, {0, 2, 3}};
  EXPECT_EQ(got, expected);
}

TEST(DisjointPaths, Validation) {
  const RouteEngine engine = MakeEngine(3, {{0, 1}, {1, 2}});
  EXPECT_THROW((void)FindDisjointPair(engine, 0, 0, 0.0), InvalidArgument);
  EXPECT_THROW((void)FindDisjointPair(engine, 0, 9, 0.0), InvalidArgument);
}

/// Plain mileage of a path: the Eq 1 fold at alpha = 0.
double WeightOf(const RiskGraph& graph, const Path& path) {
  return oracle::PathWeight(graph, path,
                            oracle::BitRiskWeight{&graph, RiskParams{}, 0.0});
}

class DisjointRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisjointRandomSweep, MatchesBruteForceOptimum) {
  util::Rng rng(GetParam());
  RiskGraph graph;
  const std::size_t n = 7;
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(RiskNode{"r" + std::to_string(i),
                           geo::GeoPoint(rng.Uniform(28, 46),
                                         rng.Uniform(-120, -70)),
                           1.0 / n, 0.0, 0.0});
  }
  for (std::size_t i = 1; i < n; ++i) {
    graph.AddEdgeByDistance(
        i, static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!graph.HasEdge(i, j) && rng.Chance(0.35)) graph.AddEdgeByDistance(i, j);
    }
  }

  // Brute force: enumerate all loopless paths, test all pairs.
  const std::vector<Path> all = oracle::LooplessPaths(graph, 0, n - 1);

  for (const Disjointness mode :
       {Disjointness::kEdgeDisjoint, Disjointness::kNodeDisjoint}) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < all.size(); ++a) {
      for (std::size_t b = a + 1; b < all.size(); ++b) {
        const bool ok = mode == Disjointness::kEdgeDisjoint
                            ? EdgeDisjoint(all[a], all[b])
                            : (NodeDisjointInterior(all[a], all[b]) &&
                               EdgeDisjoint(all[a], all[b]));
        if (ok) {
          best = std::min(best,
                          WeightOf(graph, all[a]) + WeightOf(graph, all[b]));
        }
      }
    }
    const auto pair =
        FindDisjointPair(RouteEngine(graph, RiskParams{}), 0, n - 1, 0.0, mode);
    if (best == std::numeric_limits<double>::infinity()) {
      EXPECT_FALSE(pair.has_value());
    } else {
      ASSERT_TRUE(pair.has_value());
      EXPECT_NEAR(pair->total_weight, best, 1e-6);
      EXPECT_TRUE(EdgeDisjoint(pair->first, pair->second));
      if (mode == Disjointness::kNodeDisjoint) {
        EXPECT_TRUE(NodeDisjointInterior(pair->first, pair->second));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointRandomSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           111));

}  // namespace
}  // namespace riskroute::core

// Property tests on random graphs: Dijkstra is cross-checked against
// Floyd-Warshall, Yen's enumeration against exhaustive DFS path
// enumeration, engine sweeps bitwise against the reference oracle, and
// metric invariants against random parameter draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/edge_overlay.h"
#include "core/k_shortest.h"
#include "core/ospf_export.h"
#include "core/route_engine.h"
#include "tests/graph_fixtures.h"
#include "tests/oracle/reference_routing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute::core {
namespace {

using fixtures::RandomGraph;

/// Floyd-Warshall distances under plain mileage.
std::vector<std::vector<double>> FloydWarshall(const RiskGraph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<std::vector<double>> dist(
      n, std::vector<double>(n, DijkstraWorkspace::Infinity()));
  for (std::size_t i = 0; i < n; ++i) {
    dist[i][i] = 0.0;
    for (const RiskEdge& e : graph.OutEdges(i)) {
      dist[i][e.to] = std::min(dist[i][e.to], e.miles);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  return dist;
}

/// Plain mileage of a path: the Eq 1 fold at alpha = 0.
double PathMilesOf(const RiskGraph& graph, const Path& path) {
  return oracle::PathWeight(graph, path,
                            oracle::BitRiskWeight{&graph, RiskParams{}, 0.0});
}

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, DijkstraMatchesFloydWarshall) {
  util::Rng rng(GetParam());
  const RiskGraph graph = RandomGraph(20, 0.15, rng);
  const auto expected = FloydWarshall(graph);
  const RouteEngine engine(graph, RiskParams{});
  DijkstraWorkspace workspace;
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    engine.RunDistance(workspace, s);
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      ASSERT_TRUE(workspace.Reached(d));
      EXPECT_NEAR(workspace.DistanceTo(d), expected[s][d], 1e-6)
          << "pair " << s << "->" << d;
    }
  }
}

TEST_P(RandomGraphSweep, YenMatchesExhaustiveEnumeration) {
  util::Rng rng(GetParam() + 1000);
  const RiskGraph graph = RandomGraph(9, 0.25, rng);
  const std::size_t src = 0, dst = graph.node_count() - 1;
  std::vector<Path> all = oracle::LooplessPaths(graph, src, dst);
  std::sort(all.begin(), all.end(), [&](const Path& a, const Path& b) {
    return PathMilesOf(graph, a) < PathMilesOf(graph, b);
  });

  const std::size_t k = std::min<std::size_t>(6, all.size());
  const auto yen =
      KShortestPaths(RouteEngine(graph, RiskParams{}), src, dst, k, 0.0);
  ASSERT_EQ(yen.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    // Weights must match the i-th cheapest enumerated path (paths may tie).
    EXPECT_NEAR(yen[i].weight, PathMilesOf(graph, all[i]), 1e-6)
        << "rank " << i;
  }
}

TEST_P(RandomGraphSweep, MinRiskRouteIsOptimalOverEnumeration) {
  util::Rng rng(GetParam() + 2000);
  const RiskGraph graph = RandomGraph(8, 0.3, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  const RouteEngine engine(graph, params);
  const std::size_t src = 0, dst = graph.node_count() - 1;
  const oracle::BitRiskWeight eq1{&graph, params,
                                  oracle::Alpha(graph, src, dst)};
  const std::vector<Path> all = oracle::LooplessPaths(graph, src, dst);
  ASSERT_FALSE(all.empty());
  double best = std::numeric_limits<double>::infinity();
  for (const Path& p : all) {
    best = std::min(best, oracle::PathWeight(graph, p, eq1));
  }
  const auto route = engine.FindPath(src, dst, engine.Alpha(src, dst));
  ASSERT_TRUE(route.has_value());
  EXPECT_NEAR(engine.PathBitRiskMiles(*route), best, 1e-6);
}

TEST_P(RandomGraphSweep, RatiosWellFormed) {
  util::Rng rng(GetParam() + 3000);
  const RiskGraph graph = RandomGraph(15, 0.2, rng);
  std::vector<std::size_t> everyone(graph.node_count());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  const RatioReport report = RouteEngine(graph, RiskParams{1e4, 1e2})
                                 .ComputeRatios(everyone, everyone);
  EXPECT_EQ(report.pair_count, 15u * 14u);
  EXPECT_GE(report.risk_reduction_ratio, -1e-9);
  EXPECT_LT(report.risk_reduction_ratio, 1.0);
  EXPECT_GE(report.distance_increase_ratio, -1e-9);
}

/// Oracle all-pairs matrices via the per-pair reference Dijkstra: one
/// full distance sweep per source, one targeted bit-risk run per pair.
struct LegacyMatrices {
  std::vector<double> distance;  // row-major n x n
  std::vector<double> bit_risk;
};

LegacyMatrices LegacyAllPairs(const RiskGraph& graph, const RiskParams& params) {
  const std::size_t n = graph.node_count();
  LegacyMatrices m;
  m.distance.assign(n * n, 0.0);
  m.bit_risk.assign(n * n, 0.0);
  oracle::Dijkstra workspace;
  for (std::size_t s = 0; s < n; ++s) {
    workspace.Run(graph, s, oracle::BitRiskWeight{&graph, params, 0.0});
    for (std::size_t d = 0; d < n; ++d) {
      m.distance[s * n + d] = workspace.DistanceTo(d);
    }
    for (std::size_t d = 0; d < n; ++d) {
      if (d == s) continue;
      workspace.Run(
          graph, s,
          oracle::BitRiskWeight{&graph, params, oracle::Alpha(graph, s, d)}, d);
      m.bit_risk[s * n + d] = workspace.DistanceTo(d);
    }
  }
  return m;
}

void ExpectAllPairsBitwiseEqual(const RouteEngine& engine,
                                const EdgeOverlay* overlay,
                                const LegacyMatrices& expected,
                                util::ThreadPool* pool, std::size_t threads) {
  const std::size_t n = engine.node_count();
  const PairMatrix distance =
      engine.AllPairs(RouteMetric::kDistance, pool, overlay);
  const PairMatrix bit_risk =
      engine.AllPairs(RouteMetric::kBitRisk, pool, overlay);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      ASSERT_EQ(distance.at(s, d), expected.distance[s * n + d])
          << "distance " << s << "->" << d << " threads " << threads;
      const double want = (d == s) ? 0.0 : expected.bit_risk[s * n + d];
      ASSERT_EQ(bit_risk.at(s, d), want)
          << "bit-risk " << s << "->" << d << " threads " << threads;
    }
  }
}

TEST_P(RandomGraphSweep, EngineAllPairsBitwiseMatchesLegacyAcrossThreads) {
  util::Rng rng(GetParam() + 4000);
  const RiskGraph graph = RandomGraph(16, 0.15, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  const RouteEngine engine(graph, params);
  const LegacyMatrices expected = LegacyAllPairs(graph, params);

  ExpectAllPairsBitwiseEqual(engine, nullptr, expected, nullptr, 0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    ExpectAllPairsBitwiseEqual(engine, nullptr, expected, &pool, threads);
  }
}

TEST_P(RandomGraphSweep, EngineOverlayBitwiseMatchesMutateAndRestore) {
  util::Rng rng(GetParam() + 5000);
  RiskGraph graph = RandomGraph(16, 0.2, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  // The engine freezes the pristine graph; all edits ride the overlay.
  const RouteEngine engine(graph, params);

  EdgeOverlay overlay;
  // Remove a couple of existing edges...
  std::size_t removed = 0;
  for (std::size_t a = 0; a < graph.node_count() && removed < 2; a += 3) {
    const auto& edges = graph.OutEdges(a);
    if (edges.empty()) continue;
    const std::size_t b = edges.back().to;
    if (overlay.IsRemoved(a, b)) continue;
    overlay.RemoveEdge(a, b);
    graph.RemoveEdge(a, b);
    ++removed;
  }
  // ...and add a couple of absent ones (absent pairs are disjoint from the
  // removed pairs, which existed).
  std::size_t added = 0;
  for (std::size_t a = 0; a < graph.node_count() && added < 2; ++a) {
    for (std::size_t b = a + 2; b < graph.node_count() && added < 2; b += 5) {
      if (graph.HasEdge(a, b) || overlay.IsRemoved(a, b)) continue;
      const double miles = rng.Uniform(50, 900);
      overlay.AddEdge(a, b, miles);
      graph.AddEdge(a, b, miles);
      ++added;
    }
  }
  ASSERT_GT(removed + added, 0u);

  // `graph` is now the mutate-and-restore target state; the legacy sweep
  // over it is the oracle for engine + overlay.
  const LegacyMatrices expected = LegacyAllPairs(graph, params);
  ExpectAllPairsBitwiseEqual(engine, &overlay, expected, nullptr, 0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    ExpectAllPairsBitwiseEqual(engine, &overlay, expected, &pool, threads);
  }

  // A freshly frozen engine over the mutated graph agrees with the
  // overlay too (mutation and overlay are interchangeable).
  const RouteEngine refrozen(graph, params);
  ExpectAllPairsBitwiseEqual(refrozen, nullptr, expected, nullptr, 0);
}

TEST_P(RandomGraphSweep, CompositeEngineAllPairsBitwiseMatchesCallback) {
  // The OSPF composite-cost engine routed at alpha 0 must reproduce the
  // composite link-weight callback exactly. Its graph is rebuilt link by
  // link, so adjacency order differs from the source graph; settled
  // distances do not depend on that order, parent chains might.
  util::Rng rng(GetParam() + 6000);
  const RiskGraph graph = RandomGraph(16, 0.2, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  OspfExportOptions options;
  options.alpha = rng.Uniform(0.01, 0.5);
  const auto composite = [&](std::size_t from, const RiskEdge& edge) {
    return edge.miles +
           options.alpha * (oracle::NodeScore(graph, params, from) +
                            oracle::NodeScore(graph, params, edge.to)) /
               2.0;
  };
  const RouteEngine engine =
      CompositeEngine(RouteEngine(graph, params), options);
  const PairMatrix got = engine.AllPairs(RouteMetric::kDistance);
  oracle::Dijkstra workspace;
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    workspace.Run(graph, s, composite);
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      ASSERT_EQ(got.at(s, d), workspace.DistanceTo(d)) << s << "->" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace riskroute::core

// ALT (A*, Landmarks, Triangle inequality) parity tests: with landmarks
// prepared, every targeted sweep must settle bitwise-identical distances
// to plain Dijkstra — for the distance metric, for every bit-risk alpha,
// under removal/disable overlays, and independently of thread count.
// EXPECT_EQ on doubles is deliberate throughout: the contract is bitwise
// identity, not tolerance-level agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "core/edge_overlay.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "geo/geo_point.h"
#include "tests/graph_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::DijkstraWorkspace;
using core::EdgeOverlay;
using core::PairMatrix;
using core::RiskGraph;
using core::RiskNode;
using core::RiskParams;
using core::RouteEngine;
using core::RouteMetric;
using fixtures::RandomGraph;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr RiskParams kParams{1e5, 1e3};

void ExpectBitwiseEqual(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.dist.size(), b.dist.size());
  for (std::size_t i = 0; i < a.dist.size(); ++i) {
    EXPECT_EQ(a.dist[i], b.dist[i]) << "flat index " << i;
  }
}

TEST(AltRoutingTest, LandmarkSelectionIsDeterministicAndClamped) {
  util::Rng rng(7);
  const RiskGraph graph = RandomGraph(60, 0.05, rng);
  RouteEngine a(graph, kParams);
  RouteEngine b(graph, kParams);
  a.PrepareLandmarks(8);
  b.PrepareLandmarks(8);
  ASSERT_EQ(a.landmark_count(), 8u);
  const auto ids_a = a.landmark_ids();
  const auto ids_b = b.landmark_ids();
  ASSERT_EQ(ids_a.size(), ids_b.size());
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    EXPECT_EQ(ids_a[i], ids_b[i]);
  }
  // No duplicates: farthest-point coverage marks chosen nodes.
  std::vector<std::uint32_t> sorted(ids_a.begin(), ids_a.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  // Clamp to node count; zero clears.
  a.PrepareLandmarks(1000);
  EXPECT_EQ(a.landmark_count(), graph.node_count());
  a.PrepareLandmarks(0);
  EXPECT_EQ(a.landmark_count(), 0u);
  b.ClearLandmarks();
  EXPECT_EQ(b.landmark_count(), 0u);
}

TEST(AltRoutingTest, LandmarkTableMatchesFullDistanceSweeps) {
  util::Rng rng(11);
  const RiskGraph graph = RandomGraph(50, 0.04, rng);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(6);
  DijkstraWorkspace ws;
  for (std::size_t l = 0; l < engine.landmark_count(); ++l) {
    engine.RunDistance(ws, engine.landmark_ids()[l]);
    for (std::size_t v = 0; v < graph.node_count(); ++v) {
      EXPECT_EQ(engine.LandmarkMiles(l, v),
                ws.Reached(v) ? ws.DistanceTo(v) : kInf);
    }
  }
}

TEST(AltRoutingTest, TargetedRunsMatchDijkstraBitwiseAcrossAlphas) {
  util::Rng rng(23);
  const RiskGraph graph = RandomGraph(80, 0.03, rng);
  RouteEngine plain(graph, kParams);
  RouteEngine alt(graph, kParams);
  alt.PrepareLandmarks(8);
  DijkstraWorkspace ws_plain;
  DijkstraWorkspace ws_alt;
  const std::size_t n = graph.node_count();
  for (std::size_t s = 0; s < n; s += 7) {
    for (std::size_t t = 0; t < n; t += 11) {
      if (s == t) continue;
      for (const double alpha : {0.0, alt.Alpha(s, t), 5.0}) {
        plain.Run(ws_plain, s, alpha, t);
        alt.Run(ws_alt, s, alpha, t);
        ASSERT_EQ(ws_plain.Reached(t), ws_alt.Reached(t));
        if (!ws_plain.Reached(t)) continue;
        EXPECT_EQ(ws_plain.DistanceTo(t), ws_alt.DistanceTo(t))
            << "s=" << s << " t=" << t << " alpha=" << alpha;
        // Parent chains may differ only on exact-tie paths, but any
        // returned path must carry the identical optimal weight.
        EXPECT_EQ(plain.PathWeight(ws_plain.PathTo(t), alpha),
                  alt.PathWeight(ws_alt.PathTo(t), alpha));
      }
    }
  }
}

TEST(AltRoutingTest, ManyToManyAndAllPairsMatchAcrossThreadCounts) {
  util::Rng rng(31);
  const RiskGraph graph = RandomGraph(70, 0.04, rng);
  RouteEngine plain(graph, kParams);
  RouteEngine alt(graph, kParams);
  alt.PrepareLandmarks(8);

  std::vector<std::size_t> sources{0, 5, 13, 28, 41, 66};
  std::vector<std::size_t> targets{2, 8};  // sparse: engages per-pair ALT
  for (const RouteMetric metric :
       {RouteMetric::kDistance, RouteMetric::kBitRisk}) {
    const PairMatrix reference = plain.ManyToMany(sources, targets, metric);
    ExpectBitwiseEqual(reference, alt.ManyToMany(sources, targets, metric));
    for (const std::size_t threads : {2u, 8u}) {
      util::ThreadPool pool(threads);
      ExpectBitwiseEqual(reference,
                         alt.ManyToMany(sources, targets, metric, &pool));
    }
  }

  util::ThreadPool pool(8);
  ExpectBitwiseEqual(plain.AllPairs(RouteMetric::kBitRisk),
                     alt.AllPairs(RouteMetric::kBitRisk, &pool));
}

TEST(AltRoutingTest, ComputeRatiosAndAggregatesMatchWithAltEnabled) {
  util::Rng rng(43);
  const RiskGraph graph = RandomGraph(60, 0.05, rng);
  RouteEngine plain(graph, kParams);
  RouteEngine alt(graph, kParams);
  alt.PrepareLandmarks(10);
  std::vector<std::size_t> nodes(graph.node_count());
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});

  util::ThreadPool pool(4);
  const auto ref = plain.ComputeRatios(nodes, nodes);
  const auto got = alt.ComputeRatios(nodes, nodes, &pool);
  EXPECT_EQ(ref.risk_reduction_ratio, got.risk_reduction_ratio);
  EXPECT_EQ(ref.distance_increase_ratio, got.distance_increase_ratio);
  EXPECT_EQ(ref.pair_count, got.pair_count);

  EXPECT_EQ(plain.AggregateMinBitRisk(), alt.AggregateMinBitRisk(&pool));
  EXPECT_EQ(plain.SumMinBitRisk(nodes, nodes),
            alt.SumMinBitRisk(nodes, nodes, &pool));
}

TEST(AltRoutingTest, OverlayRemovalsKeepAltAdmissibleAdditionsBypassIt) {
  util::Rng rng(59);
  const RiskGraph graph = RandomGraph(60, 0.05, rng);
  RouteEngine plain(graph, kParams);
  RouteEngine alt(graph, kParams);
  alt.PrepareLandmarks(8);
  DijkstraWorkspace ws_plain;
  DijkstraWorkspace ws_alt;

  // Removals and disabled nodes only lengthen distances: the frozen-plane
  // bounds stay admissible and ALT must stay bitwise exact.
  EdgeOverlay removal;
  removal.RemoveEdge(graph.OutEdges(0).front().to, 0);
  removal.DisableNode(17);
  // An added edge can undercut the frozen miles plane: ALT must bypass
  // itself (AltUsable false) and still match plain Dijkstra bitwise.
  EdgeOverlay addition;
  addition.AddEdge(3, 47, 1.0);

  for (const EdgeOverlay* overlay : {&removal, &addition}) {
    for (std::size_t s = 0; s < graph.node_count(); s += 9) {
      for (std::size_t t = 1; t < graph.node_count(); t += 13) {
        if (s == t) continue;
        const double alpha = plain.Alpha(s, t);
        plain.Run(ws_plain, s, alpha, t, overlay);
        alt.Run(ws_alt, s, alpha, t, overlay);
        ASSERT_EQ(ws_plain.Reached(t), ws_alt.Reached(t));
        if (ws_plain.Reached(t)) {
          EXPECT_EQ(ws_plain.DistanceTo(t), ws_alt.DistanceTo(t));
        }
      }
    }
  }
}

TEST(AltRoutingTest, DisconnectedComponentsYieldInfinityBothWays) {
  // Two components: landmarks land in both (one per component first), and
  // cross-component targeted sweeps must report unreachable identically.
  RiskGraph graph;
  for (std::size_t i = 0; i < 8; ++i) {
    graph.AddNode(RiskNode{"n" + std::to_string(i),
                           geo::GeoPoint(30.0 + static_cast<double>(i), -100.0),
                           0.125, 0.1, 0.0});
  }
  for (std::size_t i = 1; i < 4; ++i) graph.AddEdgeByDistance(i - 1, i);
  for (std::size_t i = 5; i < 8; ++i) graph.AddEdgeByDistance(i - 1, i);
  RouteEngine plain(graph, kParams);
  RouteEngine alt(graph, kParams);
  alt.PrepareLandmarks(4);
  DijkstraWorkspace ws;
  alt.Run(ws, 0, 0.0, 6);
  EXPECT_FALSE(ws.Reached(6));
  const PairMatrix m =
      alt.ManyToMany(std::vector<std::size_t>{0}, std::vector<std::size_t>{6},
                     RouteMetric::kDistance);
  EXPECT_EQ(m.at(0, 0), kInf);
}

}  // namespace
}  // namespace riskroute

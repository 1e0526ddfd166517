// RouteEngine tests: the frozen CSR engine and EdgeOverlay must be
// bitwise-exact stand-ins for the reference oracle's callback Dijkstra
// over a (possibly mutated) RiskGraph. Every parity check here uses
// EXPECT_EQ on doubles deliberately — the engine's contract is bitwise
// identity, not tolerance-level agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/backup_paths.h"
#include "core/edge_overlay.h"
#include "core/k_shortest.h"
#include "core/pair_routes.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "obs/metrics.h"
#include "provision/augmentation.h"
#include "provision/candidate_links.h"
#include "tests/graph_fixtures.h"
#include "tests/oracle/reference_routing.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::DijkstraWorkspace;
using core::EdgeOverlay;
using core::Path;
using core::RiskEdge;
using core::RiskGraph;
using core::RiskNode;
using core::RiskParams;
using core::RouteEngine;
using core::RouteMetric;
using fixtures::RandomGraph;
using oracle::Alpha;
using oracle::BitRiskWeight;

/// Serial replica of the seed's SumMinBitRisk over ordered pairs.
double LegacySumMinBitRisk(const RiskGraph& graph, const RiskParams& params,
                           const std::vector<std::size_t>& sources,
                           const std::vector<std::size_t>& targets) {
  oracle::Dijkstra workspace;
  std::vector<double> per_source(sources.size(), 0.0);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::size_t i = sources[s];
    double sum = 0.0;
    for (const std::size_t j : targets) {
      if (j == i) continue;
      const double alpha = Alpha(graph, i, j);
      workspace.Run(graph, i, BitRiskWeight{&graph, params, alpha}, j);
      if (workspace.Reached(j)) sum += workspace.DistanceTo(j);
    }
    per_source[s] = sum;
  }
  double total = 0.0;
  for (const double v : per_source) total += v;
  return total;
}

void ExpectEngineMatchesGraph(const RouteEngine& engine,
                              const EdgeOverlay* overlay,
                              const RiskGraph& graph,
                              const RiskParams& params, double alpha) {
  DijkstraWorkspace engine_ws;
  oracle::Dijkstra legacy_ws;
  const std::size_t n = graph.node_count();
  for (std::size_t s = 0; s < n; ++s) {
    engine.Run(engine_ws, s, alpha, std::nullopt, overlay);
    legacy_ws.Run(graph, s, BitRiskWeight{&graph, params, alpha});
    for (std::size_t d = 0; d < n; ++d) {
      ASSERT_EQ(engine_ws.DistanceTo(d), legacy_ws.DistanceTo(d))
          << "sweep " << s << "->" << d << " alpha " << alpha;
      ASSERT_EQ(engine_ws.Reached(d), legacy_ws.Reached(d));
      if (legacy_ws.Reached(d)) {
        ASSERT_EQ(engine_ws.PathTo(d), legacy_ws.PathTo(d))
            << "path " << s << "->" << d;
      }
    }
  }
}

TEST(RouteEngineTest, FreezePreservesAdjacencyOrderAndScores) {
  util::Rng rng(11);
  const RiskGraph graph = RandomGraph(20, 0.2, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  ASSERT_EQ(engine.node_count(), graph.node_count());
  for (std::size_t u = 0; u < graph.node_count(); ++u) {
    EXPECT_EQ(engine.NodeScore(u), oracle::NodeScore(graph, params, u));
    EXPECT_EQ(engine.impact_fraction(u), graph.node(u).impact_fraction);
    const auto& edges = graph.OutEdges(u);
    ASSERT_EQ(engine.EdgeEnd(u) - engine.EdgeBegin(u), edges.size());
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const std::size_t e = engine.EdgeBegin(u) + k;
      // CSR rows preserve adjacency-list iteration order — the property
      // the bitwise-identity contract rests on.
      EXPECT_EQ(engine.EdgeHead(e), edges[k].to);
      EXPECT_EQ(engine.EdgeMiles(e), edges[k].miles);
      EXPECT_EQ(engine.EdgeRisk(e),
                oracle::NodeScore(graph, params, edges[k].to));
    }
    for (std::size_t v = 0; v < graph.node_count(); ++v) {
      EXPECT_EQ(engine.HasEdge(u, v), graph.HasEdge(u, v));
      EXPECT_EQ(engine.Alpha(u, v), Alpha(graph, u, v));
    }
  }
}

TEST(RouteEngineTest, RunBitwiseMatchesLegacyDijkstra) {
  util::Rng rng(12);
  const RiskGraph graph = RandomGraph(24, 0.15, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  const RouteEngine engine(graph, params);

  ExpectEngineMatchesGraph(engine, nullptr, graph, params, 0.0);
  ExpectEngineMatchesGraph(engine, nullptr, graph, params,
                           Alpha(graph, 0, graph.node_count() - 1));

  // Targeted (early-exit) runs agree with the oracle's targeted runs.
  DijkstraWorkspace engine_ws;
  oracle::Dijkstra legacy_ws;
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      if (d == s) continue;
      const double alpha = Alpha(graph, s, d);
      engine.Run(engine_ws, s, alpha, d);
      legacy_ws.Run(graph, s, BitRiskWeight{&graph, params, alpha}, d);
      ASSERT_EQ(engine_ws.DistanceTo(d), legacy_ws.DistanceTo(d));
      ASSERT_EQ(engine_ws.PathTo(d), legacy_ws.PathTo(d));
    }
  }
}

TEST(RouteEngineTest, RunDistanceMatchesDistanceWeight) {
  util::Rng rng(13);
  const RiskGraph graph = RandomGraph(20, 0.2, rng);
  const RiskParams params{1e5, 1e3};
  const RouteEngine engine(graph, params);
  DijkstraWorkspace engine_ws;
  oracle::Dijkstra legacy_ws;
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    engine.RunDistance(engine_ws, s);
    legacy_ws.Run(graph, s, BitRiskWeight{&graph, params, 0.0});
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      ASSERT_EQ(engine_ws.DistanceTo(d), legacy_ws.DistanceTo(d));
    }
  }
}

TEST(RouteEngineTest, OverlayAdditionsMatchMutatedGraph) {
  util::Rng rng(14);
  RiskGraph graph = RandomGraph(18, 0.1, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  // Pick absent pairs to add, then mutate a copy the legacy way.
  EdgeOverlay overlay;
  RiskGraph mutated = graph;
  std::size_t added = 0;
  for (std::size_t a = 0; a < graph.node_count() && added < 4; ++a) {
    for (std::size_t b = a + 2; b < graph.node_count() && added < 4; b += 3) {
      if (graph.HasEdge(a, b)) continue;
      const double miles = rng.Uniform(50, 800);
      overlay.AddEdge(a, b, miles);
      mutated.AddEdge(a, b, miles);
      ++added;
    }
  }
  ASSERT_GT(added, 0u);
  ExpectEngineMatchesGraph(engine, &overlay, mutated, params, 0.0);
  ExpectEngineMatchesGraph(engine, &overlay, mutated, params,
                           Alpha(graph, 1, 2));
}

TEST(RouteEngineTest, OverlayRemovalsMatchMutatedGraph) {
  util::Rng rng(15);
  RiskGraph graph = RandomGraph(18, 0.25, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  EdgeOverlay overlay;
  RiskGraph mutated = graph;
  std::size_t removed = 0;
  for (std::size_t a = 0; a < graph.node_count() && removed < 4; a += 2) {
    const auto& edges = graph.OutEdges(a);
    if (edges.empty()) continue;
    const std::size_t b = edges.front().to;
    if (overlay.IsRemoved(a, b)) continue;
    overlay.RemoveEdge(a, b);
    mutated.RemoveEdge(a, b);
    ++removed;
  }
  ASSERT_GT(removed, 0u);
  ExpectEngineMatchesGraph(engine, &overlay, mutated, params, 0.0);
  ExpectEngineMatchesGraph(engine, &overlay, mutated, params,
                           Alpha(graph, 0, 3));
}

TEST(RouteEngineTest, OverlayDisabledNodeMatchesEdgeStrippedGraph) {
  util::Rng rng(16);
  RiskGraph graph = RandomGraph(16, 0.25, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  const std::size_t victim = 7;
  EdgeOverlay overlay;
  overlay.DisableNode(victim);
  RiskGraph mutated = graph;
  while (!mutated.OutEdges(victim).empty()) {
    mutated.RemoveEdge(victim, mutated.OutEdges(victim).front().to);
  }

  DijkstraWorkspace engine_ws;
  oracle::Dijkstra legacy_ws;
  const double alpha = Alpha(graph, 0, 1);
  for (std::size_t s = 0; s < graph.node_count(); ++s) {
    if (s == victim) continue;
    engine.Run(engine_ws, s, alpha, std::nullopt, &overlay);
    legacy_ws.Run(mutated, s, BitRiskWeight{&mutated, params, alpha});
    for (std::size_t d = 0; d < graph.node_count(); ++d) {
      ASSERT_EQ(engine_ws.DistanceTo(d), legacy_ws.DistanceTo(d))
          << s << "->" << d;
    }
    EXPECT_FALSE(engine_ws.Reached(victim));
  }
}

TEST(RouteEngineTest, DirectedRemovalWinsOverAddition) {
  RiskGraph graph;
  graph.AddNode(RiskNode{"a", geo::GeoPoint(40.0, -100.0), 0.4, 0.0, 0.0});
  graph.AddNode(RiskNode{"b", geo::GeoPoint(41.0, -101.0), 0.3, 0.0, 0.0});
  graph.AddNode(RiskNode{"c", geo::GeoPoint(42.0, -102.0), 0.3, 0.0, 0.0});
  graph.AddEdge(0, 1, 100.0);
  graph.AddEdge(1, 2, 100.0);
  const RouteEngine engine(graph, RiskParams{0.0, 0.0});

  EdgeOverlay overlay;
  overlay.AddEdge(0, 2, 10.0);
  overlay.RemoveDirectedEdge(0, 2);

  // Forward direction: the added shortcut is masked, so 0->2 detours.
  DijkstraWorkspace ws;
  engine.Run(ws, 0, 0.0, std::nullopt, &overlay);
  EXPECT_EQ(ws.DistanceTo(2), 200.0);
  // Reverse direction only had the addition, which survives.
  engine.Run(ws, 2, 0.0, std::nullopt, &overlay);
  EXPECT_EQ(ws.DistanceTo(0), 10.0);
  // PathWeight applies the same rule: the masked hop does not exist.
  EXPECT_THROW((void)engine.PathWeight(Path{0, 2}, 0.0, &overlay),
               InvalidArgument);
  EXPECT_EQ(engine.PathWeight(Path{2, 0}, 0.0, &overlay), 10.0);
}

TEST(RouteEngineTest, ForecastUpdatesRebuildRiskPlane) {
  util::Rng rng(17);
  RiskGraph graph = RandomGraph(14, 0.2, rng);
  const RiskParams params{1e5, 1e3};
  RouteEngine engine(graph, params);

  std::vector<double> advisory(graph.node_count());
  for (double& r : advisory) r = rng.Uniform(0.0, 50.0);

  RiskGraph forecast_graph = graph;
  forecast_graph.SetForecastRisks(advisory);
  const RouteEngine fresh(forecast_graph, params);

  engine.SetForecastRisks(advisory);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    ASSERT_EQ(engine.NodeScore(v), fresh.NodeScore(v));
  }
  ExpectEngineMatchesGraph(engine, nullptr, forecast_graph, params,
                           Alpha(graph, 2, 5));

  engine.ClearForecastRisks();
  RiskGraph cleared_graph = graph;
  cleared_graph.ClearForecastRisks();
  const RouteEngine cleared(cleared_graph, params);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    ASSERT_EQ(engine.NodeScore(v), cleared.NodeScore(v));
  }
}

TEST(RouteEngineTest, PathMetricsMatchRiskRouter) {
  util::Rng rng(18);
  const RiskGraph graph = RandomGraph(16, 0.2, rng);
  const RiskParams params{rng.Uniform(10, 1e4), rng.Uniform(0, 10)};
  const RouteEngine engine(graph, params);

  for (std::size_t d = 1; d < graph.node_count(); ++d) {
    const auto path = engine.FindPath(0, d, engine.Alpha(0, d));
    ASSERT_TRUE(path.has_value());
    // Eq 1 folded hop by hop with the endpoints' alpha; miles at alpha 0.
    const BitRiskWeight eq1{&graph, params, Alpha(graph, 0, d)};
    const BitRiskWeight miles{&graph, params, 0.0};
    EXPECT_EQ(engine.PathBitRiskMiles(*path),
              oracle::PathWeight(graph, *path, eq1));
    EXPECT_EQ(engine.PathMiles(*path), oracle::PathWeight(graph, *path, miles));
  }
  EXPECT_THROW((void)engine.PathWeight(Path{}, 0.0), InvalidArgument);
  // A path using a non-existent edge must throw, as the oracle fold does.
  std::size_t a = 0, b = 0;
  for (a = 0; a < graph.node_count(); ++a) {
    for (b = a + 1; b < graph.node_count(); ++b) {
      if (!graph.HasEdge(a, b)) goto found;
    }
  }
found:
  ASSERT_FALSE(graph.HasEdge(a, b));
  EXPECT_THROW((void)engine.PathWeight(Path{a, b}, 0.0), InvalidArgument);
}

TEST(RouteEngineTest, KShortestMatchesLegacyYen) {
  util::Rng rng(19);
  const RiskGraph graph = RandomGraph(12, 0.3, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);
  const std::size_t src = 0, dst = graph.node_count() - 1;

  const std::vector<Path> loopless = oracle::LooplessPaths(graph, src, dst);
  for (const double alpha : {0.0, Alpha(graph, src, dst)}) {
    // Every loopless path scored with the oracle fold, ranked by
    // (weight, path) — the order Yen's candidate set promotes in.
    std::vector<std::pair<double, Path>> ranked;
    for (const Path& path : loopless) {
      ranked.emplace_back(
          oracle::PathWeight(graph, path, BitRiskWeight{&graph, params, alpha}),
          path);
    }
    std::sort(ranked.begin(), ranked.end());
    const auto mine = core::KShortestPaths(engine, src, dst, 5, alpha);
    ASSERT_EQ(mine.size(), std::min<std::size_t>(5, ranked.size()));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].path, ranked[i].second) << "rank " << i;
      EXPECT_EQ(mine[i].weight, ranked[i].first) << "rank " << i;
    }
  }
}

TEST(RouteEngineTest, BypassVariantsMatchLegacy) {
  util::Rng rng(20);
  const RiskGraph graph = RandomGraph(14, 0.25, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  // The oracle routes on a graph copy with the protected link removed or
  // the protected node's edges stripped; both keep adjacency order, so
  // paths must match bitwise.
  oracle::Dijkstra reference;
  for (std::size_t u = 0; u < graph.node_count(); ++u) {
    for (const RiskEdge& edge : graph.OutEdges(u)) {
      if (edge.to < u) continue;
      const double alpha = Alpha(graph, u, edge.to);
      RiskGraph cut = graph;
      cut.RemoveEdge(u, edge.to);
      reference.Run(cut, u, BitRiskWeight{&cut, params, alpha}, edge.to);
      const auto mine = core::LinkBypass(engine, u, edge.to, alpha);
      ASSERT_EQ(mine.has_value(), reference.Reached(edge.to));
      if (mine) {
        EXPECT_EQ(*mine, reference.PathTo(edge.to));
      }
    }
  }
  for (std::size_t protect = 1; protect + 1 < graph.node_count(); ++protect) {
    const std::size_t u = 0, dst = graph.node_count() - 1;
    const double alpha = Alpha(graph, u, dst);
    RiskGraph stripped = graph;
    while (!stripped.OutEdges(protect).empty()) {
      stripped.RemoveEdge(protect, stripped.OutEdges(protect).front().to);
    }
    reference.Run(stripped, u, BitRiskWeight{&stripped, params, alpha}, dst);
    const auto mine = core::NodeBypass(engine, u, dst, protect, alpha);
    ASSERT_EQ(mine.has_value(), reference.Reached(dst));
    if (mine) {
      EXPECT_EQ(*mine, reference.PathTo(dst));
    }
  }
}

TEST(RouteEngineTest, AggregatesBitwiseMatchSeedReplicaAcrossThreadCounts) {
  util::Rng rng(21);
  const RiskGraph graph = RandomGraph(16, 0.2, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  const double expected = oracle::AggregateMinBitRisk(graph, params);
  EXPECT_EQ(engine.AggregateMinBitRisk(), expected);

  std::vector<std::size_t> sources{0, 3, 5, 9};
  std::vector<std::size_t> targets{1, 3, 8, 12, 15};
  const double expected_sum =
      LegacySumMinBitRisk(graph, params, sources, targets);
  EXPECT_EQ(engine.SumMinBitRisk(sources, targets), expected_sum);

  const auto serial_ratios = engine.ComputeRatios(sources, targets);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(engine.AggregateMinBitRisk(&pool), expected) << threads;
    EXPECT_EQ(engine.SumMinBitRisk(sources, targets, &pool), expected_sum)
        << threads;
    const auto ratios = engine.ComputeRatios(sources, targets, &pool);
    EXPECT_EQ(ratios.risk_reduction_ratio, serial_ratios.risk_reduction_ratio);
    EXPECT_EQ(ratios.distance_increase_ratio,
              serial_ratios.distance_increase_ratio);
    EXPECT_EQ(ratios.pair_count, serial_ratios.pair_count);
  }
}

TEST(RouteEngineTest, AllPairsAdvancesRelaxationAndReuseCounters) {
  // The obs:: instrumentation must see the work: an all-pairs aggregate
  // performs n sweeps, each relaxing edges, and every sweep after a
  // thread's first reuses that thread's thread_local workspace.
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& relaxations =
      registry.GetCounter("core.route_engine.relaxations");
  obs::Counter& reuses = registry.GetCounter(
      "core.route_engine.workspace_reuses", obs::Stability::kVolatile);

  util::Rng rng(23);
  const RiskGraph graph = RandomGraph(16, 0.2, rng);
  const RouteEngine engine(graph, RiskParams{1e4, 1e2});

  const std::uint64_t relaxations_before = relaxations.Total();
  const std::uint64_t reuses_before = reuses.Total();
  (void)engine.AggregateMinBitRisk();  // serial: 16 sweeps on this thread
  EXPECT_GT(relaxations.Total(), relaxations_before);
  EXPECT_GT(reuses.Total(), reuses_before);
}

/// Seed-verbatim greedy augmentation: graph copy, AddEdge/RemoveEdge per
/// candidate, full Eq 4 re-sweep — the mutate-and-restore loop the engine
/// overlay path replaced. Used as the parity oracle.
provision::AugmentationResult LegacyGreedyAugment(
    const RiskGraph& graph, const RiskParams& params,
    const provision::AugmentationOptions& options) {
  RiskGraph working = graph;
  provision::AugmentationResult result;
  result.original_bit_risk_miles = oracle::AggregateMinBitRisk(working, params);
  std::vector<provision::CandidateLink> candidates =
      provision::EnumerateCandidateLinks(RouteEngine(working, params),
                                         options.candidates);
  for (std::size_t step = 0; step < options.links_to_add; ++step) {
    double best_objective = std::numeric_limits<double>::infinity();
    std::size_t best_index = candidates.size();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const provision::CandidateLink& link = candidates[c];
      working.AddEdge(link.a, link.b, link.direct_miles);
      const double objective = oracle::AggregateMinBitRisk(working, params);
      working.RemoveEdge(link.a, link.b);
      if (objective < best_objective) {
        best_objective = objective;
        best_index = c;
      }
    }
    const double previous = result.steps.empty()
                                ? result.original_bit_risk_miles
                                : result.steps.back().bit_risk_miles;
    if (best_index == candidates.size() || best_objective >= previous) break;
    const provision::CandidateLink chosen = candidates[best_index];
    working.AddEdge(chosen.a, chosen.b, chosen.direct_miles);
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(best_index));
    result.steps.push_back(provision::AugmentationStep{
        chosen, best_objective, best_objective / result.original_bit_risk_miles});
  }
  return result;
}

TEST(RouteEngineTest, GreedyAugmentMatchesSeedMutateAndRestoreLoop) {
  util::Rng rng(22);
  // Sparse graph (spanning tree plus a few extras) so candidate links with
  // a > 50% mileage cut exist.
  const RiskGraph graph = RandomGraph(14, 0.03, rng);
  const RiskParams params{1e4, 1e2};

  provision::AugmentationOptions options;
  options.links_to_add = 2;
  options.candidates.max_candidates = 10;

  const auto legacy = LegacyGreedyAugment(graph, params, options);
  const RouteEngine engine(graph, params);
  const auto mine = provision::GreedyAugment(engine, options);

  EXPECT_EQ(mine.original_bit_risk_miles, legacy.original_bit_risk_miles);
  ASSERT_EQ(mine.steps.size(), legacy.steps.size());
  ASSERT_FALSE(legacy.steps.empty())
      << "fixture must exercise at least one greedy step";
  for (std::size_t i = 0; i < mine.steps.size(); ++i) {
    EXPECT_EQ(mine.steps[i].link.a, legacy.steps[i].link.a) << "step " << i;
    EXPECT_EQ(mine.steps[i].link.b, legacy.steps[i].link.b) << "step " << i;
    EXPECT_EQ(mine.steps[i].link.direct_miles, legacy.steps[i].link.direct_miles);
    EXPECT_EQ(mine.steps[i].bit_risk_miles, legacy.steps[i].bit_risk_miles) << "step " << i;
    EXPECT_EQ(mine.steps[i].fraction_of_original,
              legacy.steps[i].fraction_of_original);
  }
}

TEST(RouteEngineTest, ScanObjectivesRankLikeExactOverlayEvaluation) {
  util::Rng rng(23);
  const RiskGraph graph = RandomGraph(14, 0.03, rng);
  const RiskParams params{1e4, 1e2};
  const RouteEngine engine(graph, params);

  provision::CandidateOptions copts;
  copts.max_candidates = 8;
  const auto candidates = provision::EnumerateCandidateLinks(engine, copts);
  ASSERT_FALSE(candidates.empty());

  const EdgeOverlay none;
  const auto scanned =
      provision::ScanCandidateObjectives(engine, none, candidates);
  ASSERT_EQ(scanned.size(), candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    EdgeOverlay trial;
    trial.AddEdge(candidates[c].a, candidates[c].b, candidates[c].direct_miles);
    const double exact = engine.AggregateMinBitRisk(nullptr, &trial);
    // The incremental identity is exact up to floating-point association
    // order; a relative tolerance is the honest contract here.
    EXPECT_NEAR(scanned[c], exact, 1e-9 * std::max(1.0, std::abs(exact)))
        << "candidate " << c;
  }
}

// --- RiskGraph mutation round-trips (the overlay-equivalence proof's
// --- structural dependency) ---

void ExpectSameAdjacency(const RiskGraph& a, const RiskGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t u = 0; u < a.node_count(); ++u) {
    const auto& ea = a.OutEdges(u);
    const auto& eb = b.OutEdges(u);
    ASSERT_EQ(ea.size(), eb.size()) << "row " << u;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].to, eb[k].to) << "row " << u << " slot " << k;
      EXPECT_EQ(ea[k].miles, eb[k].miles) << "row " << u << " slot " << k;
    }
  }
}

TEST(RiskGraphEdgeRoundTripTest, AddThenRemoveRestoresIterationOrder) {
  util::Rng rng(24);
  const RiskGraph original = RandomGraph(15, 0.2, rng);
  RiskGraph graph = original;

  // Find an absent pair, add it, remove it again — the exact sequence the
  // legacy candidate evaluation ran per candidate. AddEdge appends at the
  // end of both rows and RemoveEdge erases in place, so the round trip
  // must restore byte-identical adjacency iteration order. EdgeOverlay
  // additions (relaxed after the CSR row) model exactly this append
  // position.
  std::size_t added_pairs = 0;
  for (std::size_t a = 0; a < graph.node_count(); ++a) {
    for (std::size_t b = a + 1; b < graph.node_count(); ++b) {
      if (graph.HasEdge(a, b)) continue;
      graph.AddEdge(a, b, 123.0);
      graph.RemoveEdge(a, b);
      ++added_pairs;
    }
  }
  ASSERT_GT(added_pairs, 0u);
  ExpectSameAdjacency(graph, original);
}

TEST(RiskGraphEdgeRoundTripTest, RemoveThenReAddMatchesOverlaySemantics) {
  util::Rng rng(25);
  const RiskGraph original = RandomGraph(15, 0.3, rng);

  // Removing an edge and re-adding it moves it to the end of both rows
  // while preserving every other edge's relative order — precisely the
  // order an overlay removal (skip in place) plus overlay addition (after
  // the row) produces. Verify the row structure and that shortest-path
  // results are unchanged by the round trip.
  const std::size_t a = 0;
  ASSERT_FALSE(original.OutEdges(a).empty());
  const RiskEdge protected_edge = original.OutEdges(a).front();
  const std::size_t b = protected_edge.to;

  RiskGraph graph = original;
  graph.RemoveEdge(a, b);
  graph.AddEdge(a, b, protected_edge.miles);

  for (const std::size_t u : {a, b}) {
    const auto& before = original.OutEdges(u);
    const auto& after = graph.OutEdges(u);
    ASSERT_EQ(after.size(), before.size());
    const std::size_t other = (u == a) ? b : a;
    // Re-added edge sits at the end of the row...
    EXPECT_EQ(after.back().to, other);
    EXPECT_EQ(after.back().miles, protected_edge.miles);
    // ...and the surviving edges keep their relative order.
    std::vector<std::size_t> kept_before, kept_after;
    for (const RiskEdge& e : before) {
      if (e.to != other) kept_before.push_back(e.to);
    }
    for (std::size_t k = 0; k + 1 < after.size(); ++k) {
      kept_after.push_back(after[k].to);
    }
    EXPECT_EQ(kept_after, kept_before) << "row " << u;
  }

  // When the removed edge was the most recent addition, the round trip is
  // a perfect restore (the GreedyAugment accept path relies on this).
  RiskGraph appended = original;
  std::size_t x = 0, y = 0;
  bool found = false;
  for (x = 0; x < appended.node_count() && !found; ++x) {
    for (y = x + 1; y < appended.node_count(); ++y) {
      if (!appended.HasEdge(x, y)) {
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  --x;  // undo the loop increment after the inner break
  appended.AddEdge(x, y, 77.0);
  RiskGraph round_trip = appended;
  round_trip.RemoveEdge(x, y);
  round_trip.AddEdge(x, y, 77.0);
  ExpectSameAdjacency(round_trip, appended);

  // Functional consequence: distances are bitwise unchanged by the
  // general remove/re-add round trip (same edge set, same weights).
  oracle::Dijkstra before_ws, after_ws;
  const RiskParams params{};
  for (std::size_t s = 0; s < original.node_count(); ++s) {
    before_ws.Run(original, s, BitRiskWeight{&original, params, 0.0});
    after_ws.Run(graph, s, BitRiskWeight{&graph, params, 0.0});
    for (std::size_t d = 0; d < original.node_count(); ++d) {
      ASSERT_EQ(before_ws.DistanceTo(d), after_ws.DistanceTo(d));
    }
  }
}

// ---------------------------------------------------------------------------
// core::PairRoutes: the per-pair baseline table the ensemble and the
// streaming session share. Every stored answer must be bitwise the
// targeted sweep a caller would run itself.

void ExpectTableMatchesTargetedRuns(const RouteEngine& engine,
                                    const core::PairRoutes& routes) {
  DijkstraWorkspace ws;
  const std::size_t n = engine.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t slot = routes.Slot(i, j);
      const std::span<const std::uint32_t> nodes = routes.PathNodes(slot);
      engine.Run(ws, i, engine.Alpha(i, j), j);
      if (!ws.Reached(j)) {
        ASSERT_EQ(routes.Weight(slot),
                  std::numeric_limits<double>::infinity());
        ASSERT_TRUE(nodes.empty());
        continue;
      }
      ASSERT_EQ(routes.Weight(slot), ws.DistanceTo(j))
          << "pair " << i << "-" << j;
      ASSERT_EQ(Path(nodes.begin(), nodes.end()), ws.PathTo(j))
          << "pair " << i << "-" << j;
    }
  }
}

TEST(PairRoutesTest, SlotRoundTripsAndRejectsBadPairs) {
  for (const std::size_t n : {0u, 1u, 2u, 17u}) {
    util::Rng rng(n + 1);
    const RouteEngine engine(RandomGraph(n, 0.2, rng), RiskParams{1e4, 1e2});
    const core::PairRoutes routes(engine);
    std::size_t slot = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++slot) {
        ASSERT_EQ(routes.Slot(i, j), slot) << "n " << n;
        ASSERT_EQ(routes.Endpoints(slot), std::make_pair(i, j)) << "n " << n;
      }
    }
    EXPECT_EQ(routes.pair_count(), slot) << "n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_THROW((void)routes.Slot(i, i), InvalidArgument);
    }
    if (n >= 2) {
      EXPECT_THROW((void)routes.Slot(1, 0), InvalidArgument);
    }
    EXPECT_THROW((void)routes.Slot(0, n), InvalidArgument);
    EXPECT_THROW((void)routes.Slot(0, n + 3), InvalidArgument);
  }
}

TEST(PairRoutesTest, StoredAnswersMatchTargetedRunsAtAnyThreadCount) {
  util::Rng rng(77);
  const RiskGraph graph = RandomGraph(24, 0.15, rng);
  for (const std::size_t landmarks : {0u, 4u}) {
    RouteEngine engine(graph, RiskParams{1e5, 1e3});
    if (landmarks > 0) engine.PrepareLandmarks(landmarks);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << landmarks << " landmarks, "
                                      << threads << " threads");
      util::ThreadPool pool(threads);
      const core::PairRoutes routes(engine, &pool);
      EXPECT_EQ(&routes.engine(), &engine);
      ExpectTableMatchesTargetedRuns(engine, routes);
    }
  }
}

TEST(PairRoutesTest, UnreachablePairsHoldInfinityAndNoPath) {
  // Two components: {0, 1, 2} and {3, 4}.
  RiskGraph graph;
  for (int i = 0; i < 5; ++i) {
    graph.AddNode(RiskNode{"pop-" + std::to_string(i),
                           geo::GeoPoint(30.0 + i, -100.0 + i), 0.2, 0.1,
                           0.0});
  }
  graph.AddEdgeByDistance(0, 1);
  graph.AddEdgeByDistance(1, 2);
  graph.AddEdgeByDistance(3, 4);
  const RouteEngine engine(graph, RiskParams{1e4, 1e2});
  const core::PairRoutes routes(engine);
  ExpectTableMatchesTargetedRuns(engine, routes);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      const std::size_t slot = routes.Slot(i, j);
      if ((i < 3) != (j < 3)) {
        EXPECT_EQ(routes.Weight(slot),
                  std::numeric_limits<double>::infinity());
        EXPECT_TRUE(routes.PathNodes(slot).empty());
      } else {
        EXPECT_LT(routes.Weight(slot),
                  std::numeric_limits<double>::infinity());
        ASSERT_FALSE(routes.PathNodes(slot).empty());
        EXPECT_EQ(routes.PathNodes(slot).front(), i);
        EXPECT_EQ(routes.PathNodes(slot).back(), j);
      }
    }
  }
}

// The kDistance table reads every pair off one full RunDistance tree per
// row: the stored path is the tree path and the weight its miles.
TEST(PairRoutesTest, DistanceTableMatchesRunDistance) {
  util::Rng rng(91);
  RiskGraph graph = RandomGraph(24, 0.15, rng);
  // A detached two-PoP island: its pairs with the mainland are unreachable.
  graph.AddNode(RiskNode{"island-0", geo::GeoPoint(47.0, -70.0), 0.1, 0.2,
                         0.0});
  graph.AddNode(RiskNode{"island-1", geo::GeoPoint(47.5, -69.0), 0.1, 0.2,
                         0.0});
  graph.AddEdgeByDistance(24, 25);
  for (const std::size_t landmarks : {0u, 4u}) {
    RouteEngine engine(graph, RiskParams{1e5, 1e3});
    if (landmarks > 0) engine.PrepareLandmarks(landmarks);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << landmarks << " landmarks, "
                                      << threads << " threads");
      util::ThreadPool pool(threads);
      const core::PairRoutes routes(engine, &pool, RouteMetric::kDistance);
      EXPECT_EQ(routes.metric(), RouteMetric::kDistance);
      DijkstraWorkspace ws;
      std::size_t unreachable = 0;
      for (std::size_t i = 0; i < engine.node_count(); ++i) {
        engine.RunDistance(ws, i);
        for (std::size_t j = i + 1; j < engine.node_count(); ++j) {
          const std::size_t slot = routes.Slot(i, j);
          const std::span<const std::uint32_t> nodes = routes.PathNodes(slot);
          if (!ws.Reached(j)) {
            ++unreachable;
            ASSERT_EQ(routes.Weight(slot),
                      std::numeric_limits<double>::infinity());
            ASSERT_TRUE(nodes.empty());
            continue;
          }
          ASSERT_EQ(routes.Weight(slot), ws.DistanceTo(j))
              << "pair " << i << "-" << j;
          ASSERT_EQ(Path(nodes.begin(), nodes.end()), ws.PathTo(j))
              << "pair " << i << "-" << j;
        }
      }
      EXPECT_EQ(unreachable, 2u * 24u);
    }
  }
}

}  // namespace
}  // namespace riskroute

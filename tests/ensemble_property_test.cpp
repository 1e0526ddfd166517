// Property tests for the Monte Carlo ensemble engine's determinism
// contract: draws are pure functions of (seed, k), exported statistics
// and the stable metrics section are bitwise identical across worker
// counts and scenario-index permutations, and the path-mask sweep skip is
// an exact (not approximate) optimization. Every invariance check uses
// EXPECT_EQ on doubles and full JSON strings deliberately — the contract
// is bitwise identity, not tolerance-level agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/pair_routes.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "hazard/synthesis.h"
#include "obs/metrics.h"
#include "sim/ensemble.h"
#include "tests/graph_fixtures.h"
#include "util/error.h"
#include "util/philox.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::RiskGraph;
using core::RouteEngine;
using sim::EnsembleEngine;
using sim::EnsembleOptions;
using sim::EnsembleReport;
using sim::Scenario;
using sim::ScenarioOutcome;
using fixtures::RandomGraph;

// ---------------------------------------------------------------------------
// Philox4x32-10 known-answer tests (Random123 kat_vectors): the generator
// must match the published round function bit for bit, or every seed's
// ensemble silently changes.

TEST(PhiloxTest, KnownAnswerZeros) {
  const auto block = util::PhiloxBlock(0, 0, 0);
  EXPECT_EQ(block[0], 0x6627e8d5u);
  EXPECT_EQ(block[1], 0xe169c58du);
  EXPECT_EQ(block[2], 0xbc57ac4cu);
  EXPECT_EQ(block[3], 0x9b00dbd8u);
}

TEST(PhiloxTest, KnownAnswerOnes) {
  const auto block = util::PhiloxBlock(0xffffffffffffffffull,
                                       0xffffffffffffffffull,
                                       0xffffffffffffffffull);
  EXPECT_EQ(block[0], 0x408f276du);
  EXPECT_EQ(block[1], 0x41c83b0eu);
  EXPECT_EQ(block[2], 0xa20bc7c6u);
  EXPECT_EQ(block[3], 0x6d5451fdu);
}

TEST(PhiloxTest, KnownAnswerPiDigits) {
  // ctr = {243f6a88 85a308d3 13198a2e 03707344}, key = {a4093822 299f31d0}.
  const auto block = util::PhiloxBlock(0x299f31d0a4093822ull,
                                       0x0370734413198a2eull,
                                       0x85a308d3243f6a88ull);
  EXPECT_EQ(block[0], 0xd16cfe09u);
  EXPECT_EQ(block[1], 0x94fdccebu);
  EXPECT_EQ(block[2], 0x5001e420u);
  EXPECT_EQ(block[3], 0x24126ea1u);
}

TEST(PhiloxTest, CursorReplaysAndStreamsDecorrelate) {
  util::PhiloxRng a(7, 3), b(7, 3), other_stream(7, 4), other_seed(8, 3);
  bool stream_differs = false;
  bool seed_differs = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t u = a.NextU64();
    EXPECT_EQ(u, b.NextU64());
    stream_differs |= u != other_stream.NextU64();
    seed_differs |= u != other_seed.NextU64();
  }
  EXPECT_TRUE(stream_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(PhiloxTest, UniformAndIndexRanges) {
  util::PhiloxRng rng(99, 0);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextUniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.NextIndex(17), 17u);
  }
}

// ---------------------------------------------------------------------------
// Ensemble engine fixture: a random connected geometric graph over the
// continental US (so the synthesized hazard catalogs intersect it) and a
// frozen route engine.

struct EnsembleFixture {
  RiskGraph graph;
  RouteEngine engine;
  std::vector<hazard::Catalog> catalogs;

  explicit EnsembleFixture(std::uint64_t graph_seed = 2024)
      : graph([&] {
          util::Rng rng(graph_seed);
          return RandomGraph(20, 0.12, rng);
        }()),
        engine(graph, core::RiskParams{1e5, 1e3}),
        catalogs(hazard::SynthesizeAllCatalogs()) {}
};

EnsembleOptions TestOptions(std::size_t scenarios = 48,
                            std::uint64_t seed = 2026) {
  EnsembleOptions options;
  options.scenarios = scenarios;
  options.seed = seed;
  // Widen footprints so a healthy fraction of draws hit the test graph.
  options.damage_radius_scale = 3.0;
  return options;
}

TEST(EnsembleEngineTest, ValidatesOptions) {
  const EnsembleFixture fx;
  const std::vector<hazard::Catalog> no_catalogs;
  EXPECT_THROW(EnsembleEngine(fx.engine, no_catalogs, TestOptions()),
               InvalidArgument);
  EnsembleOptions zero = TestOptions();
  zero.scenarios = 0;
  EXPECT_THROW(EnsembleEngine(fx.engine, fx.catalogs, zero), InvalidArgument);
  EnsembleOptions bad_month = TestOptions();
  bad_month.month = 13;
  EXPECT_THROW(EnsembleEngine(fx.engine, fx.catalogs, bad_month),
               InvalidArgument);
  EnsembleOptions bad_fringe = TestOptions();
  bad_fringe.fringe_factor = 0.5;
  EXPECT_THROW(EnsembleEngine(fx.engine, fx.catalogs, bad_fringe),
               InvalidArgument);
  const auto miles = std::make_shared<const core::PairRoutes>(
      fx.engine, nullptr, core::RouteMetric::kDistance);
  EXPECT_THROW(EnsembleEngine(miles, fx.catalogs, TestOptions()),
               InvalidArgument);
}

// An ensemble built from a shared core::PairRoutes table is the ensemble
// the engine constructor builds: same baseline, same link lists, same
// bytes.
TEST(EnsembleEngineTest, SharedPairTableMatchesEngineConstructor) {
  const EnsembleFixture fx;
  const auto routes = std::make_shared<const core::PairRoutes>(fx.engine);
  const std::pair<int, std::uint64_t> sets[] = {
      {0, 2026}, {9, 2026}, {3, 7}, {12, 99}};
  for (const auto& [month, seed] : sets) {
    EnsembleOptions options = TestOptions(48, seed);
    options.month = month;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "month " << month << ", seed "
                                      << seed << ", " << threads
                                      << " threads");
      util::ThreadPool pool(threads);
      const EnsembleEngine direct(fx.engine, fx.catalogs, options, &pool);
      const EnsembleEngine shared(routes, fx.catalogs, options);
      EXPECT_EQ(shared.Run(&pool).ToJson(), direct.Run(&pool).ToJson());
      for (std::size_t id = 0; id < fx.engine.link_count(); ++id) {
        EXPECT_TRUE(std::ranges::equal(shared.pair_routes().LinkSlots(id),
                                       direct.pair_routes().LinkSlots(id)));
      }
    }
  }
}

TEST(EnsembleEngineTest, DrawIsPureFunctionOfSeedAndIndex) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  // Draw out of order, repeatedly: scenario k never changes.
  for (const std::uint64_t k : {7u, 0u, 31u, 7u, 31u, 0u}) {
    const Scenario first = ensemble.Draw(k);
    const Scenario again = ensemble.Draw(k);
    EXPECT_EQ(first.index, k);
    EXPECT_EQ(first.type, again.type);
    EXPECT_EQ(first.center.latitude(), again.center.latitude());
    EXPECT_EQ(first.center.longitude(), again.center.longitude());
    EXPECT_EQ(first.radius_miles, again.radius_miles);
    EXPECT_EQ(first.failed_nodes, again.failed_nodes);
    EXPECT_EQ(first.severed_edges, again.severed_edges);
  }
}

TEST(EnsembleEngineTest, DrawsExerciseEveryFailureMode) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  bool saw_failed_node = false;
  bool saw_severed_edge = false;
  bool saw_empty = false;
  for (std::uint64_t k = 0; k < 192; ++k) {
    const Scenario scenario = ensemble.Draw(k);
    saw_failed_node |= !scenario.failed_nodes.empty();
    saw_severed_edge |= !scenario.severed_edges.empty();
    saw_empty |=
        scenario.failed_nodes.empty() && scenario.severed_edges.empty();
    EXPECT_TRUE(std::is_sorted(scenario.failed_nodes.begin(),
                               scenario.failed_nodes.end()));
    EXPECT_TRUE(std::is_sorted(scenario.severed_edges.begin(),
                               scenario.severed_edges.end()));
    for (const std::uint32_t id : scenario.severed_edges) {
      ASSERT_LT(id, fx.engine.link_count());
    }
  }
  EXPECT_TRUE(saw_failed_node);
  EXPECT_TRUE(saw_severed_edge);
  EXPECT_TRUE(saw_empty);
}

TEST(EnsembleEngineTest, StatisticsBitwiseIdenticalAcrossThreadCounts) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  const std::string serial = ensemble.Run(nullptr).ToJson();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(serial, ensemble.Run(&pool).ToJson())
        << "report diverged with " << threads << " worker threads";
  }
}

TEST(EnsembleEngineTest, StableMetricsBitwiseIdenticalAcrossThreadCounts) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  auto stable_dump = [&](std::size_t threads) {
    obs::MetricsRegistry::Global().Reset();
    util::ThreadPool pool(threads);
    (void)ensemble.Run(&pool);
    return obs::MetricsRegistry::Global().DumpJson(/*include_volatile=*/false);
  };
  const std::string one = stable_dump(1);
  EXPECT_EQ(one, stable_dump(2));
  EXPECT_EQ(one, stable_dump(8));
  obs::MetricsRegistry::Global().Reset();
}

TEST(EnsembleEngineTest, OutcomesInvariantUnderScenarioPermutation) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  std::vector<std::uint64_t> ids(32);
  std::iota(ids.begin(), ids.end(), 0);
  util::ThreadPool pool(4);
  const std::vector<ScenarioOutcome> ordered =
      ensemble.EvaluateScenarios(ids, &pool);

  std::vector<std::uint64_t> shuffled = ids;
  util::Rng rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const std::vector<ScenarioOutcome> permuted =
      ensemble.EvaluateScenarios(shuffled, &pool);
  for (std::size_t s = 0; s < shuffled.size(); ++s) {
    const ScenarioOutcome& a = ordered[shuffled[s]];
    const ScenarioOutcome& b = permuted[s];
    EXPECT_EQ(a.delta_bit_risk_miles, b.delta_bit_risk_miles);
    EXPECT_EQ(a.failed_pops, b.failed_pops);
    EXPECT_EQ(a.severed_links, b.severed_links);
    EXPECT_EQ(a.endpoint_pairs, b.endpoint_pairs);
    EXPECT_EQ(a.disconnected_pairs, b.disconnected_pairs);
    EXPECT_EQ(a.failed_edge_ids, b.failed_edge_ids);
  }
}

TEST(EnsembleEngineTest, SeedSensitivity) {
  const EnsembleFixture fx;
  const EnsembleEngine a(fx.engine, fx.catalogs, TestOptions(48, 2026));
  const EnsembleEngine same(fx.engine, fx.catalogs, TestOptions(48, 2026));
  const EnsembleEngine other(fx.engine, fx.catalogs, TestOptions(48, 2027));

  // Same seed, independently constructed engines: identical JSON export.
  EXPECT_EQ(a.Run().ToJson(), same.Run().ToJson());

  // Different seeds: some draw must differ.
  bool differs = false;
  for (std::uint64_t k = 0; k < 48 && !differs; ++k) {
    const Scenario x = a.Draw(k);
    const Scenario y = other.Draw(k);
    differs = x.center.latitude() != y.center.latitude() ||
              x.failed_nodes != y.failed_nodes ||
              x.severed_edges != y.severed_edges;
  }
  EXPECT_TRUE(differs);
}

TEST(EnsembleEngineTest, EmptyScenarioMatchesBaselineExactly) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  Scenario empty;
  empty.index = 0;
  const ScenarioOutcome outcome = ensemble.Evaluate(empty);
  EXPECT_EQ(outcome.delta_bit_risk_miles, 0.0);
  EXPECT_EQ(outcome.failed_pops, 0u);
  EXPECT_EQ(outcome.severed_links, 0u);
  EXPECT_EQ(outcome.endpoint_pairs, 0u);
  EXPECT_EQ(outcome.disconnected_pairs, 0u);
  EXPECT_TRUE(outcome.failed_edge_ids.empty());
}

/// Re-evaluates a scenario with NO path-mask skip: every alive, baseline-
/// connected pair pays a targeted overlay Dijkstra. The engine's skip must
/// be invisible in the outcome.
ScenarioOutcome BruteForceEvaluate(const EnsembleFixture& fx,
                                   const EnsembleEngine& ensemble,
                                   const Scenario& scenario) {
  ScenarioOutcome outcome;
  outcome.failed_pops =
      static_cast<std::uint32_t>(scenario.failed_nodes.size());
  outcome.severed_links =
      static_cast<std::uint32_t>(scenario.severed_edges.size());
  const std::size_t n = fx.engine.node_count();
  std::vector<bool> dead(n, false);
  for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
  const core::EdgeOverlay overlay = ensemble.OverlayFor(scenario);
  core::DijkstraWorkspace base_ws;
  core::DijkstraWorkspace ws;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      fx.engine.Run(base_ws, i, fx.engine.Alpha(i, j), j);
      if (!base_ws.Reached(j)) continue;
      if (dead[i] || dead[j]) {
        ++outcome.endpoint_pairs;
        continue;
      }
      fx.engine.Run(ws, i, fx.engine.Alpha(i, j), j, &overlay);
      if (ws.Reached(j)) {
        outcome.delta_bit_risk_miles +=
            ws.DistanceTo(j) - base_ws.DistanceTo(j);
      } else {
        ++outcome.disconnected_pairs;
      }
    }
  }
  return outcome;
}

TEST(EnsembleEngineTest, PathMaskSkipIsExact) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  std::size_t checked = 0;
  for (std::uint64_t k = 0; k < 64 && checked < 8; ++k) {
    const Scenario scenario = ensemble.Draw(k);
    if (scenario.failed_nodes.empty() && scenario.severed_edges.empty()) {
      continue;
    }
    ++checked;
    const ScenarioOutcome fast = ensemble.Evaluate(scenario);
    const ScenarioOutcome brute = BruteForceEvaluate(fx, ensemble, scenario);
    EXPECT_EQ(fast.delta_bit_risk_miles, brute.delta_bit_risk_miles);
    EXPECT_EQ(fast.endpoint_pairs, brute.endpoint_pairs);
    EXPECT_EQ(fast.disconnected_pairs, brute.disconnected_pairs);
  }
  EXPECT_GE(checked, 4u);
}

TEST(EnsembleEngineTest, ReportAggregatesAreConsistent) {
  const EnsembleFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, TestOptions());
  const EnsembleReport report = ensemble.Run();
  EXPECT_EQ(report.scenarios, 48u);
  EXPECT_EQ(report.seed, 2026u);
  EXPECT_EQ(report.baseline_pairs, ensemble.baseline_pairs());
  EXPECT_EQ(report.baseline_bit_risk_miles,
            ensemble.baseline_bit_risk_miles());
  EXPECT_LE(report.delta_min, report.delta_p5);
  EXPECT_LE(report.delta_p5, report.delta_p50);
  EXPECT_LE(report.delta_p50, report.delta_p95);
  EXPECT_LE(report.delta_p95, report.delta_max);
  EXPECT_GE(report.delta_variance, 0.0);
  for (const auto& link : report.criticality) {
    EXPECT_LT(link.a, link.b);
    EXPECT_GT(link.failures, 0u);
  }
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"riskroute.ensemble.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"criticality\""), std::string::npos);
}

TEST(EnsembleEngineTest, SeasonFilterRestrictsEventMonths) {
  const EnsembleFixture fx;
  EnsembleOptions options = TestOptions();
  options.month = 9;  // hurricane season
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, options);
  // Every draw must come from an event in September's season; the draw
  // itself only exposes the footprint, so check indirectly: the annual
  // and seasonal engines disagree on some draw.
  const EnsembleEngine annual(fx.engine, fx.catalogs, TestOptions());
  bool differs = false;
  for (std::uint64_t k = 0; k < 32 && !differs; ++k) {
    const Scenario s = ensemble.Draw(k);
    const Scenario a = annual.Draw(k);
    differs = s.center.latitude() != a.center.latitude() ||
              s.type != a.type;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace riskroute

// Monte Carlo ensemble evaluation: sim::EnsembleEngine's batched overlay
// sweeps vs the pre-engine outage-evaluation path, run on the shared
// reference oracle like bench_perf_core's legacy pairs: adjacency-list
// iteration, a freshly allocated std::priority_queue per pair, per-edge
// Eq 1 recomputation through graph.node() lookups, and hash-set failure
// checks inside the relaxation loop (what scoring a failure set meant
// before EdgeOverlay; a failed node or severed span weighs +infinity, so
// it is never relaxed).
// Both sides score the identical pre-drawn scenario set against the same
// baseline, so the wall-clock ratio is the speedup bench_compare.py
// records for the "ensemble" pair (floor 3x).
#include <cstdio>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/pair_routes.h"
#include "hazard/synthesis.h"
#include "sim/ensemble.h"
#include "sim/triage.h"
#include "tests/oracle/reference_routing.h"

namespace {

using namespace riskroute;

constexpr core::RiskParams kEnsembleBenchParams{1e5, 1e3};
constexpr std::size_t kBenchScenarios = 6;

sim::EnsembleOptions BenchEnsembleOptions() {
  sim::EnsembleOptions options;
  options.seed = 2026;
  // Widen the footprints so the sampled events actually intersect the
  // bench topology: every kept scenario must do real overlay work.
  options.damage_radius_scale = 3.0;
  return options;
}

/// Shared fixture: the Digex graph, its frozen engine and per-pair
/// baseline table, the ensemble engine built from that table (untimed),
/// and the first kBenchScenarios draws with a non-empty failure set.
struct EnsembleBenchFixture {
  core::RiskGraph graph;
  core::RouteEngine engine;
  core::PairRoutes routes;
  std::vector<hazard::Catalog> catalogs;
  sim::EnsembleEngine ensemble;
  std::vector<sim::Scenario> scenarios;

  EnsembleBenchFixture()
      : graph(bench::SharedStudy().BuildGraphFor("Digex")),
        engine(graph, kEnsembleBenchParams),
        routes(engine),
        catalogs(hazard::SynthesizeAllCatalogs()),
        ensemble(routes, catalogs, BenchEnsembleOptions()) {
    for (std::uint64_t k = 0; scenarios.size() < kBenchScenarios; ++k) {
      sim::Scenario scenario = ensemble.Draw(k);
      if (scenario.failed_nodes.empty() && scenario.severed_edges.empty()) {
        continue;
      }
      scenarios.push_back(std::move(scenario));
    }
  }
};

const EnsembleBenchFixture& SharedEnsembleFixture() {
  static const EnsembleBenchFixture fixture;
  return fixture;
}

// ---------------------------------------------------------------------------
// Pre-engine scenario scoring.

std::uint64_t EdgeKey(std::size_t u, std::size_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

double LegacyScenarioDelta(const EnsembleBenchFixture& fixture,
                           const sim::Scenario& scenario,
                           oracle::Dijkstra& workspace) {
  const core::RiskGraph& graph = fixture.graph;
  const std::size_t n = graph.node_count();
  std::vector<bool> dead(n, false);
  for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
  std::unordered_set<std::uint64_t> severed;
  for (const std::uint32_t id : scenario.severed_edges) {
    const auto& edge = fixture.ensemble.edge(id);
    severed.insert(EdgeKey(edge.a, edge.b));
  }
  double delta = 0.0;
  std::size_t slot = 0;  // pair slots run in (i, j) order
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++slot) {
      const double base = fixture.routes.Weight(slot);
      if (base == std::numeric_limits<double>::infinity()) continue;
      if (dead[i] || dead[j]) continue;
      const oracle::BitRiskWeight eq1{&graph, kEnsembleBenchParams,
                                      oracle::Alpha(graph, i, j)};
      const auto weight = [&](std::size_t from, const core::RiskEdge& edge) {
        if (dead[edge.to] || severed.count(EdgeKey(from, edge.to)) != 0) {
          return std::numeric_limits<double>::infinity();
        }
        return eq1(from, edge);
      };
      workspace.Run(graph, i, weight, j);
      if (workspace.Reached(j)) delta += workspace.DistanceTo(j) - base;
    }
  }
  return delta;
}

double BatchedScenarioDelta(const EnsembleBenchFixture& fixture,
                            const sim::Scenario& scenario) {
  return fixture.ensemble.Evaluate(scenario).delta_bit_risk_miles;
}

// ---------------------------------------------------------------------------
// Triaged vs exact-only full runs (the "ensemble_triage" bench_compare
// pair, scenarios/sec at N = 100k, floor 5x). Both sides reduce the same
// 100k-scenario universe over the same engine, serial, so the ratio is
// pure triage leverage: the exact side evaluates every scenario, the
// triaged side pays features for all but exact engine work only for the
// pilot/audit/flagged/sampled lanes. Footprints are widened
// (damage_radius_scale 6) so most non-empty draws sever real spans and
// the exact side pays an overlay sweep per scenario — the regime a
// million-scenario ensemble actually runs in.

constexpr std::size_t kTriageBenchScenarios = 100'000;

sim::TriageOptions TriageBenchOptions() {
  sim::TriageOptions options;
  options.pilot = 96;
  options.audit_stride = 1024;
  options.base_rate = 0.01;
  options.min_rate = 0.0025;
  options.impact_quantile = 0.98;
  options.uncertainty_margin = 0.5;
  return options;
}

/// The 100k-universe ensemble engine over the shared Digex fixture's
/// pair table and catalogs (built untimed).
struct TriageBenchFixture {
  sim::EnsembleEngine ensemble;

  TriageBenchFixture()
      : ensemble(SharedEnsembleFixture().routes,
                 SharedEnsembleFixture().catalogs,
                 [] {
                   sim::EnsembleOptions options = BenchEnsembleOptions();
                   options.scenarios = kTriageBenchScenarios;
                   options.damage_radius_scale = 6.0;
                   return options;
                 }()) {}
};

const TriageBenchFixture& SharedTriageFixture() {
  static const TriageBenchFixture fixture;
  return fixture;
}

void Reproduce() {
  const EnsembleBenchFixture& fixture = SharedEnsembleFixture();
  std::printf("ensemble bench fixture: Digex, %zu scenarios, "
              "%zu baseline pairs\n",
              fixture.scenarios.size(), fixture.ensemble.baseline_pairs());
  // The pair is only meaningful if both sides score scenarios identically.
  oracle::Dijkstra workspace;
  for (const sim::Scenario& scenario : fixture.scenarios) {
    const double legacy = LegacyScenarioDelta(fixture, scenario, workspace);
    const double batched = BatchedScenarioDelta(fixture, scenario);
    if (legacy != batched) {
      std::printf("MISMATCH scenario %zu: legacy delta %.17g != "
                  "batched delta %.17g\n",
                  static_cast<std::size_t>(scenario.index), legacy, batched);
    }
  }
  // Triaged-vs-exact context for the ensemble_triage pair: same universe,
  // same draws; the triaged mean is an HT estimate of the exact one.
  const TriageBenchFixture& triage = SharedTriageFixture();
  const sim::EnsembleReport exact = triage.ensemble.Run();
  const sim::TriagedReport triaged =
      sim::TriagedEnsemble(triage.ensemble, TriageBenchOptions()).Run();
  std::printf("triage fixture: %zu scenarios, exact mean %.6g, triaged "
              "mean %.6g (%zu exact evals, %.2f%% of universe)\n",
              kTriageBenchScenarios, exact.delta_mean,
              triaged.estimate.delta_mean, triaged.exact_evaluations,
              100.0 * triaged.exact_fraction);
}

void BM_EnsembleLegacy(benchmark::State& state) {
  const EnsembleBenchFixture& fixture = SharedEnsembleFixture();
  oracle::Dijkstra workspace;
  for (auto _ : state) {
    double sink = 0.0;
    for (const sim::Scenario& scenario : fixture.scenarios) {
      sink += LegacyScenarioDelta(fixture, scenario, workspace);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.scenarios.size()));
}
BENCHMARK(BM_EnsembleLegacy)->Unit(benchmark::kMillisecond);

void BM_EnsembleBatched(benchmark::State& state) {
  const EnsembleBenchFixture& fixture = SharedEnsembleFixture();
  for (auto _ : state) {
    double sink = 0.0;
    for (const sim::Scenario& scenario : fixture.scenarios) {
      sink += BatchedScenarioDelta(fixture, scenario);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.scenarios.size()));
}
BENCHMARK(BM_EnsembleBatched)->Unit(benchmark::kMillisecond);

void BM_EnsembleExactFull(benchmark::State& state) {
  const TriageBenchFixture& fixture = SharedTriageFixture();
  for (auto _ : state) {
    const sim::EnsembleReport report = fixture.ensemble.Run();
    benchmark::DoNotOptimize(report.delta_mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTriageBenchScenarios));
}
BENCHMARK(BM_EnsembleExactFull)->Unit(benchmark::kMillisecond);

void BM_EnsembleTriaged(benchmark::State& state) {
  const TriageBenchFixture& fixture = SharedTriageFixture();
  const sim::TriagedEnsemble triaged(fixture.ensemble, TriageBenchOptions());
  for (auto _ : state) {
    const sim::TriagedReport report = triaged.Run();
    benchmark::DoNotOptimize(report.estimate.delta_mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTriageBenchScenarios));
}
BENCHMARK(BM_EnsembleTriaged)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN("Ensemble evaluation benchmarks", Reproduce)

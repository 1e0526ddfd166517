// Streaming re-route benchmarks: forecast::StreamingReroute's incremental
// per-advisory step against the naive alternative — rebuild the forecast
// plane, refreeze the engine, and re-answer every PoP pair from scratch.
// tools/bench_compare.py runs the BM_StreamFullRebuild /
// BM_StreamIncremental pair and gates the speedup (floor 5x) in
// BENCH_perf.json.
//
// Both sides replay the same rolling Irene advisory sequence over the
// same synthetic CONUS graph and the same worker pool, and both produce
// the same answers (asserted bitwise in tests/streaming_test.cpp); only
// the work per advisory differs. The incremental side pays its baseline
// seed once, outside the timed loop — exactly how a serving session
// amortizes it.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "core/shortest_path.h"
#include "forecast/forecast_risk.h"
#include "forecast/streaming.h"
#include "forecast/tracks.h"
#include "geo/geo_point.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace riskroute;

constexpr std::size_t kNodes = 56;
constexpr std::uint64_t kSeed = 909;
constexpr core::RiskParams kParams{1e5, 1e3};

/// Synthetic CONUS-box graph (zero forecast plane — the streaming
/// session owns that dimension), same idiom as the api/service tests.
core::RiskGraph StreamGraph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  core::RiskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(core::RiskNode{
        "pop-" + std::to_string(i),
        geo::GeoPoint(rng.Uniform(26, 48), rng.Uniform(-123, -68)),
        rng.Uniform(0.01, 1.0), rng.Uniform(0.0, 0.5), 0.0});
  }
  for (std::size_t i = 1; i < n; ++i) {
    graph.AddEdgeByDistance(
        i, static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)));
  }
  for (std::size_t i = 0; i + 3 < n; i += 3) graph.AddEdgeByDistance(i, i + 3);
  return graph;
}

struct StreamFixture {
  core::RiskGraph graph;
  core::RouteEngine engine;
  std::vector<forecast::Advisory> advisories;

  StreamFixture()
      : graph(StreamGraph(kNodes, kSeed)),
        engine(graph, kParams),
        advisories(forecast::GenerateAdvisories(forecast::IreneTrack())) {}
};

const StreamFixture& Fixture() {
  static const StreamFixture fixture;
  return fixture;
}

// ---------------------------------------------------------------------------
// Legacy side: what serving an advisory costs without the streaming
// layer. Per advisory: full-plane ForecastRiskField pass, engine
// refreeze, one targeted sweep per PoP pair, then the old-vs-new diff.

void BM_StreamFullRebuild(benchmark::State& state) {
  const StreamFixture& f = Fixture();
  util::ThreadPool* pool = &bench::SharedPool();
  const std::size_t n = f.graph.node_count();
  core::RiskGraph graph = f.graph;  // mutable forecast plane
  std::vector<double> prev_brm(n * (n - 1) / 2,
                               std::numeric_limits<double>::infinity());
  std::size_t k = 0;
  for (auto _ : state) {
    const forecast::Advisory& advisory = f.advisories[k];
    const forecast::ForecastRiskField field(advisory);
    std::vector<double> risks(n);
    for (std::size_t v = 0; v < n; ++v) {
      risks[v] = field.RiskAt(graph.node(v).location);
    }
    graph.SetForecastRisks(risks);
    const core::RouteEngine engine(graph, kParams);

    std::vector<double> brm(n * (n - 1) / 2,
                            std::numeric_limits<double>::infinity());
    const auto sweep_source = [&](std::size_t i) {
      thread_local core::DijkstraWorkspace ws;
      std::size_t p = i * (2 * n - i - 1) / 2;
      for (std::size_t j = i + 1; j < n; ++j, ++p) {
        engine.Run(ws, i, engine.Alpha(i, j), j);
        if (ws.Reached(j)) brm[p] = ws.DistanceTo(j);
      }
    };
    util::ParallelFor(pool, n - 1, sweep_source);

    std::size_t moved = 0;
    for (std::size_t p = 0; p < brm.size(); ++p) {
      if (brm[p] != prev_brm[p]) ++moved;
    }
    benchmark::DoNotOptimize(moved);
    prev_brm = std::move(brm);
    k = (k + 1) % f.advisories.size();
  }
}
BENCHMARK(BM_StreamFullRebuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Streaming side: the same advisory sequence through one rolling
// session. Advisory numbers are re-stamped strictly increasing so the
// sequence guard admits the wrap-around replay.

void BM_StreamIncremental(benchmark::State& state) {
  const StreamFixture& f = Fixture();
  forecast::StreamOptions options;
  options.pool = &bench::SharedPool();
  forecast::StreamingReroute session(f.engine, options);  // seed untimed
  int number = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    forecast::Advisory advisory = f.advisories[k];
    advisory.number = ++number;
    auto diff = session.Ingest(advisory);
    benchmark::DoNotOptimize(diff);
    k = (k + 1) % f.advisories.size();
  }
}
BENCHMARK(BM_StreamIncremental)->Unit(benchmark::kMillisecond);

void Reproduce() {
  const StreamFixture& f = Fixture();
  forecast::StreamOptions options;
  options.pool = &bench::SharedPool();
  forecast::StreamingReroute session(f.engine, options);
  std::size_t recomputed = 0;
  std::size_t moved = 0;
  for (const forecast::Advisory& advisory : f.advisories) {
    const auto diff = session.Ingest(advisory);
    recomputed += diff.value().pairs_recomputed;
    moved += diff.value().pairs_moved;
  }
  std::printf("graph: %zu PoPs, %zu pairs | IRENE: %zu advisories\n",
              f.graph.node_count(), session.pair_count(),
              f.advisories.size());
  std::printf("rolling session: %zu pair recomputes (%.1f%% of the "
              "%zu-per-advisory naive sweep), %zu pair moves\n",
              recomputed,
              100.0 * static_cast<double>(recomputed) /
                  static_cast<double>(session.pair_count() *
                                      f.advisories.size()),
              session.pair_count(), moved);
}

}  // namespace

RISKROUTE_BENCH_MAIN("Streaming re-route: incremental advisory step",
                     Reproduce)

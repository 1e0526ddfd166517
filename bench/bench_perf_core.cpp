// Performance microbenchmarks for the library's computational kernels:
// great-circle math, kd-tree queries, KDE evaluation (batched engine vs
// the pre-batching scalar path), Dijkstra (frozen RouteEngine vs the
// pre-engine adjacency-list path), Eq 1 metric evaluation, bandwidth
// cross-validation and the parallel sweeps. Not tied to a paper table;
// used to track regressions in the hot paths. tools/bench_compare.py runs
// the legacy/new pairs (BM_Kde*, BM_BandwidthCV*, BM_RouteAllPairs*,
// BM_GreedyScan*), derives the speedups and records them in
// BENCH_perf.json.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <numeric>

#include "bench/common.h"
#include "core/edge_overlay.h"
#include "core/route_engine.h"
#include "provision/augmentation.h"
#include "provision/candidate_links.h"
#include "forecast/parser.h"
#include "forecast/tracks.h"
#include "forecast/writer.h"
#include "geo/bounding_box.h"
#include "geo/distance.h"
#include "spatial/grid_index.h"
#include "spatial/kd_tree.h"
#include "stats/bandwidth_cv.h"
#include "stats/kernel_density.h"
#include "tests/oracle/reference_routing.h"
#include "util/rng.h"

namespace {

using namespace riskroute;

// ---------------------------------------------------------------------------
// Pre-change KDE path, preserved verbatim as the speedup baseline: grid
// bucketing, a std::function visitor per event and spherical trig
// (geo::ApproxMiles: three deg->rad conversions, one cos, one sqrt) inside
// the inner loop. The batched engine must stay >= 3x faster than this.
class LegacyKde {
 public:
  LegacyKde(std::vector<geo::GeoPoint> events, double bandwidth_miles)
      : events_(std::move(events)),
        bandwidth_(bandwidth_miles),
        trunc_(5.0 * bandwidth_miles),
        norm_(1.0 / (static_cast<double>(events_.size()) *
                     2.0 * M_PI * bandwidth_ * bandwidth_)),
        index_(events_, geo::BoundingBox::Around(events_).Padded(0.5),
               std::max(2.0, trunc_ / 2.0)) {}

  [[nodiscard]] double Evaluate(const geo::GeoPoint& y) const {
    const double inv_two_sigma2 = 1.0 / (2.0 * bandwidth_ * bandwidth_);
    double sum = 0.0;
    index_.VisitNear(y, trunc_, [&](std::size_t i) {
      const double d = geo::ApproxMiles(y, events_[i]);
      if (d <= trunc_) {
        sum += std::exp(-d * d * inv_two_sigma2);
      }
    });
    return norm_ * sum;
  }

  [[nodiscard]] std::vector<double> Raster(const geo::BoundingBox& bounds,
                                           std::size_t rows,
                                           std::size_t cols) const {
    std::vector<double> grid(rows * cols, 0.0);
    const double lat_step =
        (bounds.max_lat() - bounds.min_lat()) / static_cast<double>(rows);
    const double lon_step =
        (bounds.max_lon() - bounds.min_lon()) / static_cast<double>(cols);
    for (std::size_t r = 0; r < rows; ++r) {
      const double lat =
          bounds.min_lat() + (static_cast<double>(r) + 0.5) * lat_step;
      for (std::size_t c = 0; c < cols; ++c) {
        const double lon =
            bounds.min_lon() + (static_cast<double>(c) + 0.5) * lon_step;
        grid[r * cols + c] = Evaluate(geo::GeoPoint(lat, lon));
      }
    }
    return grid;
  }

 private:
  std::vector<geo::GeoPoint> events_;
  double bandwidth_;
  double trunc_;
  double norm_;
  spatial::GridIndex index_;
};

/// Clustered synthetic event catalog shared by the KDE benches.
const std::vector<geo::GeoPoint>& KdeBenchEvents() {
  static const std::vector<geo::GeoPoint> events = [] {
    util::Rng rng(42);
    std::vector<geo::GeoPoint> out;
    out.reserve(20000);
    for (int c = 0; c < 50; ++c) {
      const geo::GeoPoint center(rng.Uniform(27, 47), rng.Uniform(-122, -70));
      for (int i = 0; i < 400; ++i) {
        const geo::GeoPoint p = geo::Destination(
            center, rng.Uniform(0, 360), std::fabs(rng.Gaussian(0, 80.0)));
        out.push_back(p);
      }
    }
    return out;
  }();
  return events;
}

/// Query points spread over the events' extent.
std::vector<geo::GeoPoint> KdeBenchQueries(std::size_t count) {
  util::Rng rng(7);
  std::vector<geo::GeoPoint> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(rng.Uniform(26, 48), rng.Uniform(-123, -69));
  }
  return out;
}

constexpr double kKdeBenchBandwidth = 60.0;

void Reproduce() {
  std::cout << "Microbenchmarks of the RiskRoute hot paths follow.\n";
}

void BM_GreatCircleMiles(benchmark::State& state) {
  const geo::GeoPoint a(29.76, -95.37), b(42.36, -71.06);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::GreatCircleMiles(a, b));
  }
}
BENCHMARK(BM_GreatCircleMiles);

void BM_ApproxMiles(benchmark::State& state) {
  const geo::GeoPoint a(29.76, -95.37), b(42.36, -71.06);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::ApproxMiles(a, b));
  }
}
BENCHMARK(BM_ApproxMiles);

void BM_KdTreeNearest(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<geo::GeoPoint> points;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    points.emplace_back(rng.Uniform(25, 49), rng.Uniform(-124, -67));
  }
  const spatial::KdTree tree(points);
  std::size_t q = 0;
  for (auto _ : state) {
    const geo::GeoPoint probe(25.0 + static_cast<double>(q % 24),
                              -124.0 + static_cast<double>(q % 57));
    benchmark::DoNotOptimize(tree.Nearest(probe));
    ++q;
  }
}
BENCHMARK(BM_KdTreeNearest)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------------
// KDE engine: batched/trig-free path vs the pre-change scalar baseline.
// Workloads are identical across the pairs so wall-clock ratios are the
// speedups bench_compare.py records.

void BM_KdeEvaluateLegacy(benchmark::State& state) {
  static const LegacyKde kde(KdeBenchEvents(), kKdeBenchBandwidth);
  const auto queries = KdeBenchQueries(512);
  double sink = 0.0;
  for (auto _ : state) {
    for (const auto& q : queries) sink += kde.Evaluate(q);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_KdeEvaluateLegacy)->Unit(benchmark::kMillisecond);

void BM_KdeEvaluateScalar(benchmark::State& state) {
  static const stats::KernelDensity2D kde(KdeBenchEvents(),
                                          kKdeBenchBandwidth);
  const auto queries = KdeBenchQueries(512);
  double sink = 0.0;
  for (auto _ : state) {
    for (const auto& q : queries) sink += kde.Evaluate(q);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_KdeEvaluateScalar)->Unit(benchmark::kMillisecond);

void BM_KdeEvaluateBatch(benchmark::State& state) {
  static const stats::KernelDensity2D kde(KdeBenchEvents(),
                                          kKdeBenchBandwidth);
  const auto queries = KdeBenchQueries(512);
  std::vector<double> out(queries.size());
  for (auto _ : state) {
    kde.EvaluateBatch(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_KdeEvaluateBatch)->Unit(benchmark::kMillisecond);

void BM_KdeRasterLegacy(benchmark::State& state) {
  static const LegacyKde kde(KdeBenchEvents(), kKdeBenchBandwidth);
  static const geo::BoundingBox bounds =
      geo::BoundingBox::Around(KdeBenchEvents()).Padded(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.Raster(bounds, 48, 96));
  }
}
BENCHMARK(BM_KdeRasterLegacy)->Unit(benchmark::kMillisecond);

void BM_KdeRasterSerial(benchmark::State& state) {
  static const stats::KernelDensity2D kde(KdeBenchEvents(),
                                          kKdeBenchBandwidth);
  static const geo::BoundingBox bounds =
      geo::BoundingBox::Around(KdeBenchEvents()).Padded(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.Raster(bounds, 48, 96));
  }
}
BENCHMARK(BM_KdeRasterSerial)->Unit(benchmark::kMillisecond);

void BM_KdeRasterParallel(benchmark::State& state) {
  static const stats::KernelDensity2D kde(KdeBenchEvents(),
                                          kKdeBenchBandwidth);
  static const geo::BoundingBox bounds =
      geo::BoundingBox::Around(KdeBenchEvents()).Padded(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kde.Raster(bounds, 48, 96, &bench::SharedPool()));
  }
}
BENCHMARK(BM_KdeRasterParallel)->Unit(benchmark::kMillisecond);

/// Seed-implementation bandwidth CV: same fold splits and scoring as
/// stats::SelectBandwidth, but scored through the legacy per-point path.
double LegacyBandwidthCv(const std::vector<geo::GeoPoint>& events,
                         const std::vector<double>& candidates,
                         std::size_t folds, std::uint64_t seed) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<std::vector<geo::GeoPoint>> train(folds), eval(folds);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t fold = rank % folds;
    for (std::size_t f = 0; f < folds; ++f) {
      (f == fold ? eval[f] : train[f]).push_back(events[order[rank]]);
    }
  }
  double best_bandwidth = 0.0;
  double best_score = std::numeric_limits<double>::infinity();
  for (const double bandwidth : candidates) {
    double fold_sum = 0.0;
    for (std::size_t f = 0; f < folds; ++f) {
      const LegacyKde model(train[f], bandwidth);
      double nll = 0.0;
      for (const auto& y : eval[f]) {
        nll -= std::log(std::max(1e-12, model.Evaluate(y)));
      }
      fold_sum += nll / static_cast<double>(eval[f].size());
    }
    const double score = fold_sum / static_cast<double>(folds);
    if (score < best_score) {
      best_score = score;
      best_bandwidth = bandwidth;
    }
  }
  return best_bandwidth;
}

/// Shared CV workload: 2,000 clustered events, 4 log-spaced candidates.
std::vector<geo::GeoPoint> CvBenchEvents() {
  const auto& all = KdeBenchEvents();
  return {all.begin(), all.begin() + 2000};
}

void BM_BandwidthCVLegacy(benchmark::State& state) {
  const auto events = CvBenchEvents();
  const auto candidates = stats::LogSpacedBandwidths(15.0, 120.0, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LegacyBandwidthCv(events, candidates, 5, 0x5eed0001));
  }
}
BENCHMARK(BM_BandwidthCVLegacy)->Unit(benchmark::kMillisecond);

void BM_BandwidthCV(benchmark::State& state) {
  const auto events = CvBenchEvents();
  const auto candidates = stats::LogSpacedBandwidths(15.0, 120.0, 4);
  stats::CrossValidationOptions options;
  options.pool = &bench::SharedPool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::SelectBandwidth(events, candidates, options));
  }
}
BENCHMARK(BM_BandwidthCV)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Routing engine: frozen-CSR RouteEngine sweeps vs the pre-engine path,
// kept as the speedup baseline in the shared reference oracle:
// adjacency-list iteration, per-edge Eq 1 recomputation through
// graph.node() lookups, and a freshly allocated std::priority_queue per
// Dijkstra call.

constexpr core::RiskParams kRouteBenchParams{1e5, 1e3};

void BM_RouteAllPairsLegacy(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RiskGraph graph = study.BuildGraphFor("Level3");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::AggregateMinBitRisk(graph, kRouteBenchParams));
  }
}
BENCHMARK(BM_RouteAllPairsLegacy)->Unit(benchmark::kMillisecond);

void BM_RouteAllPairsEngine(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RiskGraph graph = study.BuildGraphFor("Level3");
  static const core::RouteEngine engine(graph, kRouteBenchParams);
  util::ThreadPool* pool = &bench::SharedPool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AggregateMinBitRisk(pool));
  }
}
BENCHMARK(BM_RouteAllPairsEngine)->Unit(benchmark::kMillisecond);

/// Shared greedy-augment scan fixture: the Sprint graph and its capped
/// candidate set, identical for both sides of the pair.
struct GreedyScanFixture {
  core::RiskGraph graph;
  core::RouteEngine engine;
  std::vector<provision::CandidateLink> candidates;

  GreedyScanFixture()
      : graph(bench::SharedStudy().BuildGraphFor("Sprint")),
        engine(graph, kRouteBenchParams) {
    provision::CandidateOptions options;
    options.max_candidates = 6;
    candidates = provision::EnumerateCandidateLinks(engine, options);
  }
};

const GreedyScanFixture& SharedGreedyScanFixture() {
  static const GreedyScanFixture fixture;
  return fixture;
}

void BM_GreedyScanLegacy(benchmark::State& state) {
  const GreedyScanFixture& fixture = SharedGreedyScanFixture();
  // The pre-engine candidate scan: mutate the working graph, re-run the
  // full Eq 4 sweep, restore — once per candidate.
  core::RiskGraph working = fixture.graph;
  for (auto _ : state) {
    double sink = 0.0;
    for (const provision::CandidateLink& link : fixture.candidates) {
      working.AddEdge(link.a, link.b, link.direct_miles);
      sink += oracle::AggregateMinBitRisk(working, kRouteBenchParams);
      working.RemoveEdge(link.a, link.b);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_GreedyScanLegacy)->Unit(benchmark::kMillisecond);

void BM_GreedyScanEngine(benchmark::State& state) {
  const GreedyScanFixture& fixture = SharedGreedyScanFixture();
  const core::EdgeOverlay none;
  util::ThreadPool* pool = &bench::SharedPool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(provision::ScanCandidateObjectives(
        fixture.engine, none, fixture.candidates, pool));
  }
}
BENCHMARK(BM_GreedyScanEngine)->Unit(benchmark::kMillisecond);

void BM_DijkstraLevel3AllTargets(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Level3"),
                                        kRouteBenchParams);
  core::DijkstraWorkspace workspace;
  std::size_t source = 0;
  for (auto _ : state) {
    engine.RunDistance(workspace, source % engine.node_count());
    benchmark::DoNotOptimize(workspace.DistanceTo(engine.node_count() - 1));
    ++source;
  }
}
BENCHMARK(BM_DijkstraLevel3AllTargets)->Unit(benchmark::kMicrosecond);

void BM_PathBitRiskEvaluation(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Level3"),
                                        kRouteBenchParams);
  const auto path = engine.FindPath(0, engine.node_count() - 1, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.PathBitRiskMiles(*path));
  }
}
BENCHMARK(BM_PathBitRiskEvaluation);

void BM_IntradomainRatiosParallel(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Tinet"),
                                        kRouteBenchParams);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::IntradomainRatios(engine, &bench::SharedPool()));
  }
}
BENCHMARK(BM_IntradomainRatiosParallel)->Unit(benchmark::kMillisecond);

void BM_AdvisoryRoundTrip(benchmark::State& state) {
  const auto advisories = forecast::GenerateAdvisories(forecast::IreneTrack());
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string text =
        forecast::RenderAdvisory(advisories[i % advisories.size()]);
    benchmark::DoNotOptimize(forecast::ParseAdvisoryResult(text));
    ++i;
  }
}
BENCHMARK(BM_AdvisoryRoundTrip);

}  // namespace

RISKROUTE_BENCH_MAIN("Core kernel microbenchmarks", Reproduce)

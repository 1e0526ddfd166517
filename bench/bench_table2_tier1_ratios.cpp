// Table 2 — "Tier-1 Networks Analysis of Bit-Risk to Bit-Miles using
// RiskRoute": all-pairs intradomain risk-reduction (Eq 5) and
// distance-increase (Eq 6) ratios for the seven Tier-1 networks at
// lambda_h = 1e5 and 1e6 (lambda_f = 1e3, no active forecast).
//
// Reproduced shape: ratios grow with lambda_h; the much larger Level3
// network shows the smallest risk reduction (its per-PoP impact fractions
// are ~1/233).
#include <iostream>

#include "bench/common.h"

namespace {

using namespace riskroute;

const char* kTier1Names[] = {"Level3", "ATT",   "Deutsche",   "NTT",
                             "Sprint", "Tinet", "Teliasonera"};

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  util::Table table({"Network Name", "# PoPs", "RR (1e5)", "DIR (1e5)",
                     "RR (1e6)", "DIR (1e6)"});
  for (const char* name : kTier1Names) {
    const core::RiskGraph graph = study.BuildGraphFor(name);
    const core::RatioReport low = bench::IntradomainRatios(
        core::RouteEngine(graph, core::RiskParams{1e5, 1e3}), &pool);
    const core::RatioReport high = bench::IntradomainRatios(
        core::RouteEngine(graph, core::RiskParams{1e6, 1e3}), &pool);
    table.Add(name, graph.node_count(), low.risk_reduction_ratio,
              low.distance_increase_ratio, high.risk_reduction_ratio,
              high.distance_increase_ratio);
  }
  table.Render(std::cout);
  std::cout << "(paper: Level3 0.075/0.015 & 0.258/0.136; DT 0.245/0.130 & "
               "0.384/0.446; ratios grow with lambda, Level3 smallest RR)\n";
}

void BM_SinglePairRiskRoute(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Level3"),
                                        core::RiskParams{1e5, 1e3});
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t a = i % engine.node_count();
    const std::size_t b = (i * 37 + 11) % engine.node_count();
    if (a != b) {
      benchmark::DoNotOptimize(engine.FindPath(a, b, engine.Alpha(a, b)));
    }
    ++i;
  }
}
BENCHMARK(BM_SinglePairRiskRoute)->Unit(benchmark::kMicrosecond);

void BM_AllPairsRatiosSmallTier1(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Deutsche"),
                                        core::RiskParams{1e5, 1e3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::IntradomainRatios(engine, nullptr));
  }
}
BENCHMARK(BM_AllPairsRatiosSmallTier1)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Table 2: Tier-1 intradomain bit-risk vs bit-mile ratios (Eq 5 / Eq 6)",
    Reproduce)

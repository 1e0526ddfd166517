// Figure 7 — "RiskRoute applied to the Level3 Network topology between
// Houston, TX and Boston, MA PoPs".
//
// Prints the geographic shortest path and the RiskRoute path at
// lambda_h = 1e4 and 1e5. Reproduced shape: as lambda_h grows the route
// becomes more risk-averse and deviates further from the shortest path
// (longer bit-miles, lower bit-risk).
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"

namespace {

using namespace riskroute;

void PrintRoute(const core::RiskGraph& graph, const char* label,
                const core::RouteEngine& engine, const core::Path& path) {
  const core::PathMetrics metrics = engine.Measure(path);
  std::cout << label << util::Format(" (%zu hops, %.0f mi, %.0f bit-risk mi):\n",
                                     path.size() - 1, metrics.miles,
                                     metrics.bit_risk_miles);
  for (const std::size_t v : path) {
    std::cout << "    " << graph.node(v).name
              << util::Format("  [o_h=%.4f]\n", graph.node(v).historical_risk);
  }
}

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  const core::RiskGraph graph = study.BuildGraphFor("Level3");

  std::size_t houston = 0, boston = 0;
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    if (graph.node(i).name == "Houston, TX") houston = i;
    if (graph.node(i).name == "Boston, MA") boston = i;
  }

  const core::RouteEngine base(graph, core::RiskParams{0, 0});
  PrintRoute(graph, "\nShortest path", base,
             *base.FindPath(houston, boston, 0.0));

  for (const double lambda : {1e4, 1e5}) {
    const core::RouteEngine engine(graph, core::RiskParams{lambda, 1e3});
    const double alpha = engine.Alpha(houston, boston);
    PrintRoute(graph,
               util::Format("\nRiskRoute (lambda_h = %.0e)", lambda).c_str(),
               engine, *engine.FindPath(houston, boston, alpha));
  }
  std::cout << "(paper Fig 7: the dotted RiskRoute path deviates from the "
               "shortest path, more strongly at lambda_h = 1e5 than 1e4)\n";
}

void BM_HoustonBostonRiskRoute(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Level3"),
                                        core::RiskParams{1e5, 1e3});
  std::size_t houston = 0, boston = 0;
  for (std::size_t i = 0; i < engine.node_count(); ++i) {
    if (engine.node_name(i) == "Houston, TX") houston = i;
    if (engine.node_name(i) == "Boston, MA") boston = i;
  }
  const double alpha = engine.Alpha(houston, boston);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.FindPath(houston, boston, alpha));
  }
}
BENCHMARK(BM_HoustonBostonRiskRoute)->Unit(benchmark::kMicrosecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 7: Level3 Houston->Boston routes vs lambda_h",
    Reproduce)

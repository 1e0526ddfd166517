// Figure 8 — "Interdomain RiskRoute experiments. Comparison of distance
// increase ratio and risk reduction ratio for regional networks".
//
// For each of the 16 regional networks: every PoP is a source and the PoPs
// of all regional networks are destinations, routed across the merged
// peering substrate (lambda_h = 1e5, as in the paper). Reproduced shape:
// a cloud where several networks obtain ~2x more risk reduction than the
// distance they pay (the paper names Digex, Gridnet, Hibernia, Bandcon),
// while others sit near the diagonal.
#include <iostream>

#include "bench/common.h"
#include "core/interdomain.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const core::MergedGraph merged = study.BuildMerged();
  const core::RouteEngine engine(merged.graph, core::RiskParams{1e5, 1e3});

  util::Table table({"Network", "Distance Ratio", "Risk Ratio", "Pairs",
                     "Risk/Distance"});
  for (const std::size_t n :
       study.corpus().NetworksOfKind(topology::NetworkKind::kRegional)) {
    const core::RatioReport report =
        core::InterdomainRatios(engine, merged, study.corpus(), n, &pool);
    const double advantage =
        report.distance_increase_ratio > 1e-9
            ? report.risk_reduction_ratio / report.distance_increase_ratio
            : 0.0;
    table.Add(study.corpus().network(n).name(),
              report.distance_increase_ratio, report.risk_reduction_ratio,
              report.pair_count, advantage);
  }
  table.Render(std::cout);
  std::cout << "(paper Fig 8: Digex, Gridnet, Hibernia and Bandcon cut ~20% "
               "bit-risk for ~10% extra distance; several others sit near "
               "the diagonal)\n";
}

void BM_InterdomainPairQuery(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::MergedGraph merged = study.BuildMerged();
  static const core::RouteEngine engine(merged.graph,
                                        core::RiskParams{1e5, 1e3});
  const std::size_t a = merged.GlobalId(study.NetworkIndex("Digex"), 0);
  const std::size_t b = merged.GlobalId(study.NetworkIndex("Telepak"), 0);
  const double alpha = engine.Alpha(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.FindPath(a, b, alpha));
  }
}
BENCHMARK(BM_InterdomainPairQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 8: interdomain distance-increase vs risk-reduction scatter",
    Reproduce)

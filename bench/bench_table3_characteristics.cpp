// Table 3 — "Regional Network routing performance coefficient of
// determination (R^2) with respect to network characteristics".
//
// Computes the interdomain ratios for each of the 16 regional networks
// (lambda_h = 1e5, as in Figure 8), then regresses them against six
// network characteristics. Reproduced shape: geographic footprint,
// number of PoPs and number of links correlate with the risk-reduction
// ratio; average PoP risk, outdegree and peer count do not (the paper's
// explanation: unavoidable endpoint risk cancels out of the ratio).
#include <iostream>

#include "bench/common.h"
#include "core/interdomain.h"
#include "stats/regression.h"
#include "util/rng.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const core::MergedGraph merged = study.BuildMerged();
  const core::RouteEngine engine(merged.graph, core::RiskParams{1e5, 1e3});

  const auto regionals =
      study.corpus().NetworksOfKind(topology::NetworkKind::kRegional);
  std::vector<double> rr, dir;
  std::vector<double> footprint, avg_risk, outdegree, pops, links, peers;
  for (const std::size_t n : regionals) {
    const topology::Network& network = study.corpus().network(n);
    const core::RatioReport report =
        core::InterdomainRatios(engine, merged, study.corpus(), n, &pool);
    rr.push_back(report.risk_reduction_ratio);
    dir.push_back(report.distance_increase_ratio);
    footprint.push_back(network.FootprintMiles());
    double risk_sum = 0.0;
    for (const topology::Pop& pop : network.pops()) {
      risk_sum += study.hazard_field().RiskAt(pop.location);
    }
    avg_risk.push_back(risk_sum / static_cast<double>(network.pop_count()));
    outdegree.push_back(network.AverageDegree());
    pops.push_back(static_cast<double>(network.pop_count()));
    links.push_back(static_cast<double>(network.link_count()));
    peers.push_back(static_cast<double>(study.corpus().PeersOf(n).size()));
  }

  util::Table table({"Network Characteristic", "Risk Reduction Ratio R^2",
                     "Distance Increase Ratio R^2"});
  const auto row = [&](const char* label, const std::vector<double>& xs) {
    table.Add(label, stats::RSquared(xs, rr), stats::RSquared(xs, dir));
  };
  row("Geographic Footprint", footprint);
  row("Average PoP Risk", avg_risk);
  row("Average Outdegree", outdegree);
  row("Number of PoPs", pops);
  row("Number of Links", links);
  row("Number of Peers", peers);
  table.Render(std::cout);
  std::cout << "(paper R^2 for RR: footprint 0.618, avg risk 0.104, "
               "outdegree 0.116, #PoPs 0.552, #links 0.531, #peers 0.155)\n";
}

void BM_RSquared(benchmark::State& state) {
  std::vector<double> xs, ys;
  util::Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    xs.push_back(rng.Uniform(0, 1));
    ys.push_back(rng.Uniform(0, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::RSquared(xs, ys));
  }
}
BENCHMARK(BM_RSquared);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Table 3: R^2 of regional network characteristics vs RiskRoute ratios",
    Reproduce)

// Seasonal risk (extension of paper Section 5.2, which averages seasons
// away "for simplicity"): per-season amplification of the hazard field
// over regional anchor points, and the effect on routing — a Gulf-coast
// regional's risk-reduction ratio in hurricane season vs mid-winter.
#include <iostream>

#include "bench/common.h"
#include "hazard/seasonal.h"
#include "hazard/synthesis.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();

  const auto catalogs = hazard::SynthesizeAllCatalogs();
  hazard::SeasonalRiskField seasonal(catalogs, hazard::PaperBandwidths());
  seasonal.CalibrateTo(study.AllPopLocations());

  // --- Amplification per season over two contrasting regions. ---
  const std::vector<geo::GeoPoint> gulf = {
      geo::GeoPoint(29.95, -90.07), geo::GeoPoint(30.4, -88.9),
      geo::GeoPoint(27.9, -82.6), geo::GeoPoint(29.8, -95.4)};
  const std::vector<geo::GeoPoint> west = {
      geo::GeoPoint(34.05, -118.24), geo::GeoPoint(37.77, -122.42),
      geo::GeoPoint(47.61, -122.33), geo::GeoPoint(40.76, -111.89)};
  util::Table amp({"Season", "Gulf amplification", "West amplification"});
  for (const hazard::Season season : hazard::AllSeasons()) {
    amp.Add(std::string(hazard::ToString(season)),
            seasonal.SeasonalAmplification(gulf, season),
            seasonal.SeasonalAmplification(west, season));
  }
  amp.Render(std::cout);

  // --- Routing effect: Telepak (Mississippi) by season. ---
  std::cout << "\nTelepak intradomain ratios by season (lambda_h = 1e5):\n";
  util::Table ratios({"Season", "Risk Reduction", "Distance Increase"});
  const std::size_t telepak = study.NetworkIndex("Telepak");
  const topology::Network& network = study.corpus().network(telepak);
  core::RiskGraph graph = study.BuildGraph(telepak);
  for (const hazard::Season season : hazard::AllSeasons()) {
    // Swap in the season's o_h values.
    const std::vector<double> risks = seasonal.PopRisks(network, season);
    core::RiskGraph seasonal_graph;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      core::RiskNode node = graph.node(i);
      node.historical_risk = risks[i];
      seasonal_graph.AddNode(std::move(node));
    }
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      for (const core::RiskEdge& e : graph.OutEdges(i)) {
        if (e.to > i) seasonal_graph.AddEdge(i, e.to, e.miles);
      }
    }
    const core::RatioReport report = bench::IntradomainRatios(
        core::RouteEngine(seasonal_graph, core::RiskParams{1e5, 1e3}), &pool);
    ratios.Add(std::string(hazard::ToString(season)),
               report.risk_reduction_ratio, report.distance_increase_ratio);
  }
  ratios.Render(std::cout);
  std::cout << "(gulf risk concentrates in summer/fall — hurricane season — "
               "and risk-averse routing matters most then; the paper "
               "acknowledges but averages away this seasonality)\n";
}

void BM_SeasonalRiskAt(benchmark::State& state) {
  static const hazard::SeasonalRiskField field = [] {
    return hazard::SeasonalRiskField(hazard::SynthesizeAllCatalogs(),
                                     hazard::PaperBandwidths());
  }();
  const geo::GeoPoint p(29.95, -90.07);
  int month = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.RiskAt(p, (month % 12) + 1));
    ++month;
  }
}
BENCHMARK(BM_SeasonalRiskAt);

}  // namespace

RISKROUTE_BENCH_MAIN("Seasonal hazard risk and its routing impact",
                     Reproduce)

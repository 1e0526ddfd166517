// Outage drill: Monte-Carlo validation that RiskRoute's paths actually
// dodge disasters. Samples thousands of disaster events from the
// historical catalogs, disables PoPs inside each event's damage footprint,
// and compares how much (gravity-weighted) traffic had its path hit under
// shortest-path routing versus RiskRoute routing.
//
//   $ ./outage_drill [network] [trials]
//
// Defaults: Tinet, 2000 trials.
#include <cstdio>
#include <string>

#include "api/api.h"

using namespace riskroute;

int main(int argc, char** argv) {
  const std::string network_name = argc > 1 ? argv[1] : "Tinet";
  const std::size_t trials =
      argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 2000;

  std::puts("Building the RiskRoute study...");
  const core::Study study = core::Study::Build();
  util::ThreadPool pool;

  const core::RiskGraph graph = study.BuildGraphFor(network_name);
  const sim::TrafficMatrix traffic = sim::TrafficMatrix::Gravity(graph);
  const auto catalogs = hazard::SynthesizeAllCatalogs();

  std::printf("\nDrilling %s (%zu PoPs) with %zu sampled disasters...\n",
              network_name.c_str(), graph.node_count(), trials);
  for (const double lambda : {1e4, 1e5, 1e6}) {
    const core::RouteEngine engine(graph, core::RiskParams{lambda, 0});
    sim::OutageSimOptions options;
    options.trials = trials;
    const sim::OutageSimReport report =
        sim::RunOutageSimulation(engine, catalogs, traffic, options, &pool);
    std::printf(
        "  lambda_h=%.0e: transit traffic hit %.3f%% (shortest) vs %.3f%% "
        "(RiskRoute) -> ratio %.2f; endpoint loss %.3f%%; mean PoPs "
        "disabled/event %.2f\n",
        lambda, 100 * report.shortest_path_affected,
        100 * report.riskroute_affected, report.AffectedRatio(),
        100 * report.endpoint_loss, report.mean_pops_disabled);
  }
  std::puts(
      "\nA ratio below 1.0 means risk-aware paths crossed disaster zones "
      "less often than shortest paths — the bit-risk metric predicting "
      "real outage exposure.");
  return 0;
}

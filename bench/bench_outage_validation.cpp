// Validation experiment (beyond the paper's figures): does minimizing
// bit-risk miles actually reduce exposure to the disasters the risk model
// was trained on? Monte-Carlo outage simulation over sampled catalog
// events, for three representative networks and a lambda sweep. The paper
// argues this qualitatively (Sections 1, 5); this bench quantifies it and
// doubles as an ablation of the lambda_h knob.
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"
#include "hazard/synthesis.h"
#include "sim/outage_sim.h"
#include "sim/traffic.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const auto catalogs = hazard::SynthesizeAllCatalogs();

  util::Table table({"Network", "lambda_h", "Shortest affected",
                     "RiskRoute affected", "Affected ratio",
                     "Endpoint loss"});
  for (const char* name : {"Tinet", "Sprint", "Telepak"}) {
    const core::RiskGraph graph = study.BuildGraphFor(name);
    const sim::TrafficMatrix traffic = sim::TrafficMatrix::Gravity(graph);
    for (const double lambda : {0.0, 1e4, 1e5, 1e6}) {
      const core::RouteEngine engine(graph, core::RiskParams{lambda, 0});
      sim::OutageSimOptions options;
      options.trials = 1500;
      const sim::OutageSimReport report =
          sim::RunOutageSimulation(engine, catalogs, traffic, options, &pool);
      table.Add(name, util::Format("%.0e", lambda),
                report.shortest_path_affected, report.riskroute_affected,
                report.AffectedRatio(), report.endpoint_loss);
    }
  }
  table.Render(std::cout);
  std::cout << "(affected ratio < 1 validates the metric: risk-aware paths "
               "cross sampled disaster footprints less often; it falls "
               "with lambda_h where routes can leave the risk region)\n";
}

void BM_OutageTrialBatch(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RiskGraph graph = study.BuildGraphFor("Deutsche");
  static const core::RouteEngine engine(graph, core::RiskParams{1e5, 0});
  static const sim::TrafficMatrix traffic = sim::TrafficMatrix::Gravity(graph);
  static const auto catalogs = hazard::SynthesizeAllCatalogs();
  for (auto _ : state) {
    sim::OutageSimOptions options;
    options.trials = 50;
    benchmark::DoNotOptimize(
        sim::RunOutageSimulation(engine, catalogs, traffic, options));
  }
}
BENCHMARK(BM_OutageTrialBatch)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Outage validation: do min-bit-risk paths dodge sampled disasters?",
    Reproduce)

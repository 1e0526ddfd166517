// Figure 13 — "Regional network case study" for Hurricanes Irene, Katrina
// and Sandy: the interdomain risk-reduction ratio per advisory tick for
// every regional network with more than 20% of its PoPs inside the storm's
// scope (the paper's inclusion rule).
//
// Reproduced shape: gulf-coast regionals (Costreet, Iris, Telepak,
// USANetwork) appear under Katrina; east-coast regionals (ANS, Bandcon,
// Digex, Globalcenter, Gridnet, Hibernia, Goodnet) under Irene/Sandy, and
// networks with most of their infrastructure *outside* the storm improve
// most (the paper contrasts Digex, 22% in scope, with Globalcenter, 87%).
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"
#include "core/interdomain.h"
#include "forecast/forecast_risk.h"
#include "forecast/tracks.h"

namespace {

using namespace riskroute;

constexpr std::size_t kAdvisoryStride = 6;
constexpr double kScopeThreshold = 0.20;  // paper: >20% of PoPs in scope

void RunStorm(const forecast::StormTrack& track) {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const auto advisories = forecast::GenerateAdvisories(track);
  const forecast::StormScope scope(advisories);

  // Paper inclusion rule: regionals with >20% of PoPs in the storm scope
  // (we use the tropical-storm-force scope).
  std::vector<std::size_t> included;
  for (const std::size_t n :
       study.corpus().NetworksOfKind(topology::NetworkKind::kRegional)) {
    const double fraction = scope.FractionPopsInZone(
        study.corpus().network(n), forecast::WindZone::kTropical);
    if (fraction > kScopeThreshold) included.push_back(n);
  }

  std::cout << "\n--- " << track.name << ": " << included.size()
            << " regional networks with >20% of PoPs in scope ---\n";
  if (included.empty()) return;

  std::vector<std::string> headers = {"Advisory Time"};
  for (const std::size_t n : included) {
    const auto& network = study.corpus().network(n);
    headers.push_back(util::Format(
        "%s (%.0f%%)", network.name().c_str(),
        100.0 * scope.FractionPopsInZone(network,
                                         forecast::WindZone::kTropical)));
  }
  util::Table table(headers);

  // Frozen once per storm; each advisory only re-planes forecast risks.
  const core::MergedGraph merged = study.BuildMerged();
  core::RouteEngine engine(merged.graph, core::RiskParams{1e5, 1e3});
  for (std::size_t a = 0; a < advisories.size(); a += kAdvisoryStride) {
    const forecast::ForecastRiskField field(advisories[a]);
    std::vector<double> risks(engine.node_count());
    for (std::size_t i = 0; i < engine.node_count(); ++i) {
      risks[i] = field.RiskAt(engine.location(i));
    }
    engine.SetForecastRisks(risks);
    std::vector<std::string> row = {advisories[a].time.ToString()};
    for (const std::size_t n : included) {
      const core::RatioReport report =
          core::InterdomainRatios(engine, merged, study.corpus(), n, &pool);
      row.push_back(util::Format("%.3f", report.risk_reduction_ratio));
    }
    table.AddRow(std::move(row));
  }
  table.Render(std::cout);
}

void Reproduce() {
  RunStorm(forecast::IreneTrack());
  RunStorm(forecast::KatrinaTrack());
  RunStorm(forecast::SandyTrack());
  std::cout << "\n(paper Fig 13: Katrina shows gulf regionals, Irene/Sandy "
               "the east-coast set; improvements up to ~40% and largest for "
               "networks with most infrastructure outside the storm)\n";
}

void BM_MergedForecastUpdate(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static core::RouteEngine engine(study.BuildMerged().graph,
                                  core::RiskParams{1e5, 1e3});
  const auto advisories = forecast::GenerateAdvisories(forecast::IreneTrack());
  const forecast::ForecastRiskField field(advisories[advisories.size() / 2]);
  std::vector<double> risks(engine.node_count());
  for (auto _ : state) {
    for (std::size_t i = 0; i < engine.node_count(); ++i) {
      risks[i] = field.RiskAt(engine.location(i));
    }
    engine.SetForecastRisks(risks);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MergedForecastUpdate)->Unit(benchmark::kMicrosecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 13: regional-network interdomain risk ratios during the storms",
    Reproduce)

// Figure 12 — "Tier-1 network case study" for Hurricanes Irene, Katrina
// and Sandy: the intradomain risk-reduction ratio of every Tier-1 network
// at each advisory tick (lambda_h = 1e5, lambda_f = 1e3).
//
// Per advisory, the forecast risk field (rho_t = 50 inside
// tropical-storm-force winds, rho_h = 100 inside hurricane-force winds) is
// applied to each network's PoPs and the Eq 5 ratio recomputed. Reproduced
// shape: Katrina's ratios stay small (little tier-1 infrastructure in its
// scope); Irene and especially Sandy lift every network's ratio, and the
// network with the largest share of PoPs in the storm improves most.
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"
#include "forecast/forecast_risk.h"
#include "forecast/tracks.h"

namespace {

using namespace riskroute;

const char* kTier1Names[] = {"Level3", "ATT",   "Deutsche",   "NTT",
                             "Sprint", "Tinet", "Teliasonera"};
// Every 5th advisory keeps the series readable (the paper's x-axis also
// labels a subset of ticks).
constexpr std::size_t kAdvisoryStride = 5;

void RunStorm(const forecast::StormTrack& track) {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const auto advisories = forecast::GenerateAdvisories(track);

  std::cout << "\n--- " << track.name << " (" << advisories.size()
            << " advisories) ---\n";
  std::vector<std::string> headers = {"Advisory Time"};
  for (const char* name : kTier1Names) headers.emplace_back(name);
  util::Table table(headers);

  // Freeze the engines once; set forecast risk per tick.
  std::vector<core::RouteEngine> engines;
  for (const char* name : kTier1Names) {
    engines.emplace_back(study.BuildGraphFor(name), core::RiskParams{1e5, 1e3});
  }

  for (std::size_t a = 0; a < advisories.size(); a += kAdvisoryStride) {
    const forecast::ForecastRiskField field(advisories[a]);
    std::vector<std::string> row = {advisories[a].time.ToString()};
    for (core::RouteEngine& engine : engines) {
      std::vector<double> risks(engine.node_count());
      for (std::size_t i = 0; i < engine.node_count(); ++i) {
        risks[i] = field.RiskAt(engine.location(i));
      }
      engine.SetForecastRisks(risks);
      const core::RatioReport report = bench::IntradomainRatios(engine, &pool);
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
  std::cout << "\n(paper Fig 12: risk ratios rise as each storm approaches; "
               "Katrina's stay low, Sandy lifts every tier-1, and the "
               "network with the largest PoP share in scope gains most)\n";
}

void BM_AdvisoryTickRatio(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static core::RouteEngine engine(study.BuildGraphFor("Deutsche"),
                                  core::RiskParams{1e5, 1e3});
  const auto advisories = forecast::GenerateAdvisories(forecast::SandyTrack());
  const forecast::ForecastRiskField field(advisories[advisories.size() / 2]);
  std::vector<double> risks(engine.node_count());
  for (std::size_t i = 0; i < engine.node_count(); ++i) {
    risks[i] = field.RiskAt(engine.location(i));
  }
  engine.SetForecastRisks(risks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::IntradomainRatios(engine, nullptr));
  }
}
BENCHMARK(BM_AdvisoryTickRatio)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 12: Tier-1 risk-ratio time series during Irene/Katrina/Sandy",
    Reproduce)

// Figures 5 & 6 — advisory-derived geo-spatial disaster forecasts.
//
// Figure 5 tracks Hurricane Irene's forecast risk region over time (three
// snapshots); Figure 6 shows the final geographic scope of Irene, Katrina
// and Sandy. This bench parses the generated NHC advisory text (the same
// NLP path as the paper's Section 4.4), prints snapshot rows for Irene,
// the final scope of all three storms, and the Section 7.3 counts of
// Tier-1 PoPs under hurricane-force winds (paper: Irene 86, Katrina 8,
// Sandy 115 — our one-PoP-per-city corpus yields smaller absolute counts
// with the same ordering).
#include <iostream>

#include "bench/common.h"
#include "forecast/forecast_risk.h"
#include "forecast/parser.h"
#include "forecast/tracks.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();

  // --- Figure 5: Irene snapshots, parsed from advisory text. ---
  std::cout << "\nFigure 5 - Hurricane Irene forecast snapshots (parsed from "
               "NHC-format advisory text):\n";
  const auto irene_texts = forecast::GenerateAdvisoryTexts(forecast::IreneTrack());
  util::Table snapshots({"Advisory", "Time", "Center",
                         "Hurr. wind radius (mi)", "Trop. wind radius (mi)"});
  for (const std::size_t index :
       {irene_texts.size() / 3, 2 * irene_texts.size() / 3,
        irene_texts.size() - 1}) {
    const forecast::Advisory advisory =
        forecast::ParseAdvisoryResult(irene_texts[index]).ValueOrThrow();
    snapshots.Add(advisory.number, advisory.time.ToString(),
                  advisory.center.ToString(),
                  advisory.hurricane_wind_radius_miles,
                  advisory.tropical_wind_radius_miles);
  }
  snapshots.Render(std::cout);

  // --- Figure 6 + Section 7.3: final scopes and PoP counts. ---
  std::cout << "\nFigure 6 - final geo-spatial scope and Tier-1 PoPs in "
               "scope:\n";
  util::Table scope_table({"Storm", "Advisories", "Tier-1 PoPs (hurr.)",
                           "Tier-1 PoPs (trop.)", "Paper hurr. count"});
  const struct {
    const forecast::StormTrack* track;
    int paper_count;
  } storms[] = {{&forecast::IreneTrack(), 86},
                {&forecast::KatrinaTrack(), 8},
                {&forecast::SandyTrack(), 115}};
  for (const auto& [track, paper_count] : storms) {
    const forecast::StormScope scope(forecast::GenerateAdvisories(*track));
    std::size_t hurricane_pops = 0, tropical_pops = 0;
    for (const std::size_t n :
         study.corpus().NetworksOfKind(topology::NetworkKind::kTier1)) {
      hurricane_pops += scope.CountPopsInZone(study.corpus().network(n),
                                              forecast::WindZone::kHurricane);
      tropical_pops += scope.CountPopsInZone(study.corpus().network(n),
                                             forecast::WindZone::kTropical);
    }
    scope_table.Add(track->name, scope.advisory_count(), hurricane_pops,
                    tropical_pops, paper_count);
  }
  scope_table.Render(std::cout);
}

void BM_ParseAdvisoryResult(benchmark::State& state) {
  const auto texts = forecast::GenerateAdvisoryTexts(forecast::SandyTrack());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forecast::ParseAdvisoryResult(texts[i % texts.size()]));
    ++i;
  }
}
BENCHMARK(BM_ParseAdvisoryResult);

void BM_StormScopeQuery(benchmark::State& state) {
  const forecast::StormScope scope(
      forecast::GenerateAdvisories(forecast::SandyTrack()));
  const geo::GeoPoint probe(40.71, -74.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scope.MaxZoneAt(probe));
  }
}
BENCHMARK(BM_StormScopeQuery);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figures 5/6: forecast parsing, storm scope over time, final scopes",
    Reproduce)

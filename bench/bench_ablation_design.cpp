// Ablations of the reproduction's design choices (DESIGN.md §1/§4):
//
//  A. Calibration target — the paper's Eq 2 density scale is
//     under-determined; we pin the mean PoP risk to 0.15. How sensitive
//     are the Table 2 ratios to that choice?
//  B. Corpus seed — the synthetic topology is one draw from the generator;
//     does the Table 2 shape (ratios grow with lambda, Level3 smallest)
//     hold across seeds?
//  C. Peering co-location radius — interdomain results depend on which
//     PoPs can realize a peering; sweep the radius.
#include <iostream>

#include "bench/common.h"
#include "core/interdomain.h"
#include "core/study.h"

namespace {

using namespace riskroute;

/// One network's intradomain ratios at lambda_h = 1e5 (the Table 2 sweep).
core::RatioReport Table2Ratios(const core::Study& study, const char* name) {
  return bench::IntradomainRatios(
      core::RouteEngine(study.BuildGraphFor(name), core::RiskParams{1e5, 1e3}),
      &bench::SharedPool());
}

void AblateCalibration() {
  std::cout << "\nA. Calibration target vs Deutsche/Level3 ratios "
               "(lambda_h = 1e5):\n";
  util::Table table({"Mean PoP risk target", "Level3 RR", "Level3 DIR",
                     "Deutsche RR", "Deutsche DIR"});
  for (const double target : {0.05, 0.15, 0.45}) {
    core::StudyOptions options;
    options.calibration_target = target;
    const core::Study study = core::Study::Build(options);
    const core::RatioReport level3 = Table2Ratios(study, "Level3");
    const core::RatioReport dt = Table2Ratios(study, "Deutsche");
    table.Add(target, level3.risk_reduction_ratio,
              level3.distance_increase_ratio, dt.risk_reduction_ratio,
              dt.distance_increase_ratio);
  }
  table.Render(std::cout);
}

void AblateCorpusSeed() {
  std::cout << "\nB. Corpus seed vs Table 2 shape (lambda_h = 1e5):\n";
  util::Table table({"Seed", "Level3 RR", "Mean other tier-1 RR",
                     "Level3 is smallest?"});
  for (const std::uint64_t seed : {123ULL, 7ULL, 99ULL}) {
    core::StudyOptions options;
    options.corpus_seed = seed;
    const core::Study study = core::Study::Build(options);
    const double level3 = Table2Ratios(study, "Level3").risk_reduction_ratio;
    double sum = 0.0;
    double min_other = 1.0;
    const char* others[] = {"ATT", "Deutsche", "NTT", "Sprint", "Tinet",
                            "Teliasonera"};
    for (const char* name : others) {
      const double rr = Table2Ratios(study, name).risk_reduction_ratio;
      sum += rr;
      min_other = std::min(min_other, rr);
    }
    table.Add(static_cast<long long>(seed), level3, sum / 6.0,
              level3 <= min_other + 0.03 ? "yes (within 0.03)" : "no");
  }
  table.Render(std::cout);
}

void AblateColocationRadius() {
  std::cout << "\nC. Peering co-location radius vs Digex interdomain "
               "ratios (lambda_h = 1e5):\n";
  util::Table table({"Radius (mi)", "Peering edges", "Digex RR",
                     "Digex DIR", "Pairs"});
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  for (const double radius : {5.0, 25.0, 75.0}) {
    core::MergeOptions options;
    options.colocation_radius_miles = radius;
    const core::MergedGraph merged = study.BuildMerged(options);
    const core::RatioReport report = core::InterdomainRatios(
        core::RouteEngine(merged.graph, core::RiskParams{1e5, 1e3}), merged,
        study.corpus(), study.NetworkIndex("Digex"), &pool);
    table.Add(radius, merged.peering_edges.size(),
              report.risk_reduction_ratio, report.distance_increase_ratio,
              report.pair_count);
  }
  table.Render(std::cout);
}

void Reproduce() {
  AblateCalibration();
  AblateCorpusSeed();
  AblateColocationRadius();
}

void BM_StudyBuildReducedCensus(benchmark::State& state) {
  for (auto _ : state) {
    core::StudyOptions options;
    options.census.block_count = 5000;
    benchmark::DoNotOptimize(core::Study::Build(options));
  }
}
BENCHMARK(BM_StudyBuildReducedCensus)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN("Design ablations: calibration, corpus seed, "
                     "co-location radius",
                     Reproduce)

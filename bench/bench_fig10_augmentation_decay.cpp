// Figure 10 — "Estimated risk reduction with added links": fraction of
// the original aggregate bit-risk miles as 1..8 greedy links are added,
// for all seven Tier-1 networks.
//
// Reproduced shape: densely connected Level3 improves least per added
// link; sparser networks (Sprint, Teliasonera in the paper) improve
// markedly within a few links.
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"
#include "provision/augmentation.h"

namespace {

using namespace riskroute;

const char* kTier1Names[] = {"Level3", "ATT",   "Deutsche",   "NTT",
                             "Sprint", "Tinet", "Teliasonera"};

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const core::RiskParams params{1e5, 1e3};
  constexpr std::size_t kLinks = 8;

  std::vector<std::string> headers = {"Links Added"};
  for (const char* name : kTier1Names) headers.emplace_back(name);
  util::Table table(headers);

  std::vector<std::vector<double>> fractions(kTier1Names[0] != nullptr ? 7 : 7);
  for (std::size_t n = 0; n < 7; ++n) {
    const core::RouteEngine engine(study.BuildGraphFor(kTier1Names[n]),
                                   params);
    provision::AugmentationOptions options;
    options.links_to_add = kLinks;
    options.candidates.max_candidates = engine.node_count() > 100 ? 50 : 250;
    const provision::AugmentationResult result =
        provision::GreedyAugment(engine, options, &pool);
    fractions[n].assign(kLinks, 1.0);
    for (std::size_t s = 0; s < result.steps.size() && s < kLinks; ++s) {
      fractions[n][s] = result.steps[s].fraction_of_original;
    }
    // If greedy stopped early, carry the last fraction forward.
    for (std::size_t s = 1; s < kLinks; ++s) {
      fractions[n][s] = std::min(fractions[n][s], fractions[n][s - 1]);
    }
  }
  for (std::size_t s = 0; s < kLinks; ++s) {
    std::vector<std::string> row = {std::to_string(s + 1)};
    for (std::size_t n = 0; n < 7; ++n) {
      row.push_back(util::Format("%.4f", fractions[n][s]));
    }
    table.AddRow(std::move(row));
  }
  table.Render(std::cout);
  std::cout << "(paper Fig 10: Level3, with its high existing connectivity, "
               "improves least; sparser tier-1s drop markedly within a few "
               "added links)\n";
}

void BM_GreedySingleStepNTT(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("NTT"),
                                        core::RiskParams{1e5, 1e3});
  provision::AugmentationOptions options;
  options.links_to_add = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provision::GreedyAugment(engine, options));
  }
}
BENCHMARK(BM_GreedySingleStepNTT)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 10: aggregate bit-risk decay vs number of added links",
    Reproduce)

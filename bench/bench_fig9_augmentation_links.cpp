// Figure 9 — "Tier-1 Network RiskRoute Robustness Suggestions. The 10 best
// additional links found using the RiskRoute methodology" for the Level3,
// AT&T and Tinet networks.
//
// Greedy Eq 4 augmentation; each step prints the chosen endpoints and the
// remaining fraction of the original aggregate bit-risk miles. Reproduced
// shape: the suggested links bypass high-risk regions, and the densely
// connected Level3 gains the least per link.
#include <iostream>

#include "bench/common.h"
#include "util/strings.h"
#include "provision/augmentation.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const core::RiskParams params{1e5, 1e3};

  for (const char* name : {"Level3", "ATT", "Tinet"}) {
    const core::RouteEngine engine(study.BuildGraphFor(name), params);
    provision::AugmentationOptions options;
    options.links_to_add = 10;
    // Bound the exact-objective sweep on the 233-PoP Level3 network.
    options.candidates.max_candidates =
        engine.node_count() > 100 ? 60 : 300;
    const provision::AugmentationResult result =
        provision::GreedyAugment(engine, options, &pool);

    std::cout << "\n" << name
              << util::Format(" (original aggregate bit-risk %.3g):\n",
                              result.original_bit_risk_miles);
    util::Table table({"#", "New Link", "Link Miles",
                       "Fraction of Original Bit-Risk"});
    for (std::size_t s = 0; s < result.steps.size(); ++s) {
      const auto& step = result.steps[s];
      table.Add(s + 1,
                engine.node_name(step.link.a) + " <-> " +
                    engine.node_name(step.link.b),
                step.link.direct_miles, step.fraction_of_original);
    }
    table.Render(std::cout);
  }
  std::cout << "(paper Fig 9: ten dotted suggested links per network, "
               "adding connectivity that avoids high-outage-risk areas)\n";
}

void BM_AggregateObjectiveSmall(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Deutsche"),
                                        core::RiskParams{1e5, 1e3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AggregateMinBitRisk());
  }
}
BENCHMARK(BM_AggregateObjectiveSmall)->Unit(benchmark::kMillisecond);

void BM_CandidateEnumerationTinet(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  static const core::RouteEngine engine(study.BuildGraphFor("Tinet"),
                                        core::RiskParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(provision::EnumerateCandidateLinks(engine));
  }
}
BENCHMARK(BM_CandidateEnumerationTinet)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 9: ten best additional links for Level3 / AT&T / Tinet (Eq 4)",
    Reproduce)

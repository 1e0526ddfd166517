// Figure 11 — "Robust Experiments - The best additional peering
// relationship for each regional network".
//
// For every regional network, evaluates each candidate peer (co-located,
// not currently peered) by the interdomain lower-bound objective and
// prints the winner. Reproduced shape: the majority of regionals pick
// AT&T or Tinet (the tier-1s most regionals do not yet peer with, whose
// footprints best shortcut around risk).
#include <iostream>
#include <map>

#include "bench/common.h"
#include "provision/peering.h"

namespace {

using namespace riskroute;

void Reproduce() {
  const core::Study& study = bench::SharedStudy();
  util::ThreadPool& pool = bench::SharedPool();
  const core::MergedGraph merged = study.BuildMerged();
  const core::RouteEngine engine(merged.graph, core::RiskParams{1e5, 1e3});

  util::Table table({"Regional Network", "Best New Peer", "Coloc. PoPs",
                     "Objective Reduction"});
  std::map<std::string, int> winners;
  for (const std::size_t n :
       study.corpus().NetworksOfKind(topology::NetworkKind::kRegional)) {
    const auto recommendation = provision::RecommendPeering(
        engine, merged, study.corpus(), n, 25.0, &pool);
    if (recommendation.best() == nullptr) {
      table.Add(study.corpus().network(n).name(), "(no candidate)", 0, 0.0);
      continue;
    }
    const auto& best = *recommendation.best();
    const std::string peer_name = study.corpus().network(best.peer.network).name();
    winners[peer_name]++;
    const double reduction =
        1.0 - best.objective / recommendation.baseline_objective;
    table.Add(study.corpus().network(n).name(), peer_name,
              best.peer.pairs.size(), reduction);
  }
  table.Render(std::cout);
  std::cout << "Winner tally:";
  for (const auto& [name, count] : winners) {
    std::cout << " " << name << "=" << count;
  }
  std::cout << "\n(paper Fig 11: a majority of regional networks choose to "
               "peer with either AT&T or Tinet)\n";
}

void BM_CandidatePeerEnumeration(benchmark::State& state) {
  const core::Study& study = bench::SharedStudy();
  const std::size_t digex = study.NetworkIndex("Digex");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        provision::EnumerateCandidatePeers(study.corpus(), digex, 25.0));
  }
}
BENCHMARK(BM_CandidatePeerEnumeration)->Unit(benchmark::kMillisecond);

}  // namespace

RISKROUTE_BENCH_MAIN(
    "Figure 11: best additional peering per regional network",
    Reproduce)

// Provisioning planner: where should a network add capacity to harden
// itself against disaster outages? Runs both of the paper's Section 6.3
// analyses — intradomain link augmentation (Eq 4) and, for regional
// networks, the best new peering relationship.
//
//   $ ./provisioning_planner [network] [links_to_add]
//
// Defaults: Sprint, 5 links. For regional networks the peering
// recommendation is printed as well.
#include <cstdio>
#include <string>

#include "api/api.h"

using namespace riskroute;

int main(int argc, char** argv) {
  const std::string network_name = argc > 1 ? argv[1] : "Sprint";
  const std::size_t links =
      argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 5;

  std::puts("Building the RiskRoute study...");
  const core::Study study = core::Study::Build();
  util::ThreadPool pool;
  const core::RiskParams params{1e5, 1e3};
  const std::size_t network_index = study.NetworkIndex(network_name);
  const topology::Network& network = study.corpus().network(network_index);

  // --- Link augmentation (Eq 4). ---
  const core::RouteEngine engine(study.BuildGraph(network_index), params);
  provision::AugmentationOptions options;
  options.links_to_add = links;
  options.candidates.max_candidates = engine.node_count() > 100 ? 120 : 400;
  std::printf("\nSearching the best %zu additional links for %s "
              "(%zu PoPs, %zu links)...\n",
              links, network_name.c_str(), network.pop_count(),
              network.link_count());
  const provision::AugmentationResult result =
      provision::GreedyAugment(engine, options, &pool);
  std::printf("Aggregate min bit-risk today: %.4g\n",
              result.original_bit_risk_miles);
  for (std::size_t s = 0; s < result.steps.size(); ++s) {
    const auto& step = result.steps[s];
    std::printf("  %zu. %s <-> %s  (%.0f mi)  -> %.2f%% of original risk\n",
                s + 1, engine.node_name(step.link.a).c_str(),
                engine.node_name(step.link.b).c_str(), step.link.direct_miles,
                100.0 * step.fraction_of_original);
  }
  if (result.steps.empty()) {
    std::puts("  (no candidate link improves the objective)");
  }

  // --- Peering recommendation (regional networks). ---
  if (network.kind() == topology::NetworkKind::kRegional) {
    std::printf("\nEvaluating new peering options for %s...\n",
                network_name.c_str());
    const core::MergedGraph merged = study.BuildMerged();
    const provision::PeeringRecommendation recommendation =
        provision::RecommendPeering(core::RouteEngine(merged.graph, params),
                                    merged, study.corpus(), network_index,
                                    25.0, &pool);
    if (recommendation.best() == nullptr) {
      std::puts("  (no co-located non-peer network found)");
    } else {
      for (const auto& evaluation : recommendation.evaluations) {
        std::printf(
            "  peer with %-14s at %zu co-located PoPs -> %.2f%% lower "
            "bound bit-risk reduction\n",
            study.corpus().network(evaluation.peer.network).name().c_str(),
            evaluation.peer.pairs.size(),
            100.0 * (1.0 - evaluation.objective /
                               recommendation.baseline_objective));
      }
    }
  }
  return 0;
}

#include "sim/outage_sim.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/pair_routes.h"
#include "sim/ensemble.h"
#include "util/error.h"

namespace riskroute::sim {
namespace {

/// What one trial took out of service: traffic volumes and PoPs.
struct TrialLoss {
  double shortest = 0.0;
  double riskroute = 0.0;
  double endpoint = 0.0;
  double pops = 0.0;
};

/// Traffic between i and j, both directions.
double PairVolume(const TrafficMatrix& traffic, std::size_t i, std::size_t j) {
  return traffic.demand(i, j) + traffic.demand(j, i);
}

/// Volume of the pairs in `table` whose endpoints both survive but whose
/// stored path crosses one of `links`, summed in ascending slot order.
double TransitLoss(const core::PairRoutes& table,
                   std::span<const std::uint32_t> links,
                   const std::vector<bool>& dead,
                   const TrafficMatrix& traffic) {
  double lost = 0.0;
  for (const std::uint32_t slot : table.SlotsCrossing(links)) {
    const auto [i, j] = table.Endpoints(slot);
    if (!dead[i] && !dead[j]) lost += PairVolume(traffic, i, j);
  }
  return lost;
}

}  // namespace

double OutageSimReport::AffectedRatio() const {
  if (shortest_path_affected > 0.0) {
    return riskroute_affected / shortest_path_affected;
  }
  return riskroute_affected > 0.0 ? std::numeric_limits<double>::infinity()
                                  : 1.0;
}

OutageSimReport RunOutageSimulation(const core::RouteEngine& engine,
                                    const std::vector<hazard::Catalog>& catalogs,
                                    const TrafficMatrix& traffic,
                                    const OutageSimOptions& options,
                                    util::ThreadPool* pool) {
  if (catalogs.empty()) {
    throw InvalidArgument("RunOutageSimulation: no catalogs");
  }
  if (traffic.size() != engine.node_count()) {
    throw InvalidArgument("RunOutageSimulation: traffic matrix size mismatch");
  }
  if (options.trials == 0) {
    throw InvalidArgument("RunOutageSimulation: trials must be positive");
  }

  const core::PairRoutes shortest(engine, pool, core::RouteMetric::kDistance);
  const auto risky = std::make_shared<const core::PairRoutes>(
      engine, pool, core::RouteMetric::kBitRisk);
  // The ensemble's draw with every stochastic refinement off: an archive
  // event's exact footprint is the whole failure set.
  EnsembleOptions draws;
  draws.scenarios = options.trials;
  draws.seed = options.seed;
  draws.damage_radius_scale = options.damage_radius_scale;
  draws.center_jitter = 0.0;
  draws.fringe_fail_scale = 0.0;
  draws.link_cut_prob = 0.0;
  const EnsembleEngine sampler(risky, catalogs, draws);

  const std::size_t n = engine.node_count();
  std::vector<TrialLoss> losses(options.trials);
  util::ParallelFor(pool, options.trials, [&](std::size_t k) {
    const Scenario scenario = sampler.Draw(k);
    TrialLoss& loss = losses[k];
    loss.pops = static_cast<double>(scenario.failed_nodes.size());
    if (scenario.failed_nodes.empty()) return;
    std::vector<bool> dead(n, false);
    for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
    for (std::size_t i = 0; i < n; ++i) {  // pair slot order
      for (std::size_t j = i + 1; j < n; ++j) {
        if (dead[i] || dead[j]) loss.endpoint += PairVolume(traffic, i, j);
      }
    }
    // With no link cuts the failed links are the dead PoPs' links, so a
    // pair with both endpoints alive crosses one exactly when a transit
    // node of its path is dead.
    const std::vector<std::uint32_t> links = sampler.FailedLinks(scenario);
    loss.shortest = TransitLoss(shortest, links, dead, traffic);
    loss.riskroute = TransitLoss(*risky, links, dead, traffic);
  });

  OutageSimReport report;
  report.trials = options.trials;
  for (const TrialLoss& loss : losses) {
    report.shortest_path_affected += loss.shortest;
    report.riskroute_affected += loss.riskroute;
    report.endpoint_loss += loss.endpoint;
    report.mean_pops_disabled += loss.pops;
  }
  const auto trials = static_cast<double>(options.trials);
  report.shortest_path_affected /= trials * traffic.total_volume();
  report.riskroute_affected /= trials * traffic.total_volume();
  report.endpoint_loss /= trials * traffic.total_volume();
  report.mean_pops_disabled /= trials;
  return report;
}

}  // namespace riskroute::sim

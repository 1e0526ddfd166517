#include "sim/outage_sim.h"

#include <limits>
#include <span>

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

/// True when a transit node of `path` (endpoints excluded) is dead.
bool CrossesDead(std::span<const std::uint32_t> path,
                 const std::vector<bool>& dead) {
  for (std::size_t h = 1; h + 1 < path.size(); ++h) {
    if (dead[path[h]]) return true;
  }
  return false;
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
  const core::PairRoutes risky(engine, pool, core::RouteMetric::kBitRisk);
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
    std::size_t slot = 0;  // pair slots run in (i, j) order
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++slot) {
        const double volume = traffic.demand(i, j) + traffic.demand(j, i);
        if (dead[i] || dead[j]) {
          loss.endpoint += volume;
          continue;
        }
        if (CrossesDead(shortest.PathNodes(slot), dead)) {
          loss.shortest += volume;
        }
        if (CrossesDead(risky.PathNodes(slot), dead)) {
          loss.riskroute += volume;
        }
      }
    }
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

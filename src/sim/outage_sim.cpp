#include "sim/outage_sim.h"

#include <algorithm>

#include "core/route_engine.h"
#include "core/shortest_path.h"
#include "geo/distance.h"
#include "util/error.h"

namespace riskroute::sim {
namespace {

/// Per-pair transit node sets (path nodes excluding the endpoints),
/// flattened for cache friendliness.
struct PathSets {
  // offsets[i * n + j] .. offsets[i * n + j + 1] index into transit_nodes.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> transit_nodes;
};

PathSets PrecomputePaths(const core::RouteEngine& engine, bool risk_aware,
                         util::ThreadPool* pool) {
  const std::size_t n = engine.node_count();
  std::vector<std::vector<std::uint32_t>> per_pair(n * n);

  const auto body = [&](std::size_t i) {
    thread_local core::DijkstraWorkspace workspace;
    if (!risk_aware) {
      // One distance sweep covers every destination.
      engine.RunDistance(workspace, i);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !workspace.Reached(j)) continue;
        const core::Path path = workspace.PathTo(j);
        auto& nodes = per_pair[i * n + j];
        for (std::size_t k = 1; k + 1 < path.size(); ++k) {
          nodes.push_back(static_cast<std::uint32_t>(path[k]));
        }
      }
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      engine.Run(workspace, i, engine.Alpha(i, j), j);
      if (!workspace.Reached(j)) continue;
      const core::Path path = workspace.PathTo(j);
      auto& nodes = per_pair[i * n + j];
      for (std::size_t k = 1; k + 1 < path.size(); ++k) {
        nodes.push_back(static_cast<std::uint32_t>(path[k]));
      }
    }
  };
  util::ParallelFor(pool, n, body);

  PathSets sets;
  sets.offsets.resize(n * n + 1, 0);
  for (std::size_t p = 0; p < per_pair.size(); ++p) {
    sets.offsets[p + 1] =
        sets.offsets[p] + static_cast<std::uint32_t>(per_pair[p].size());
  }
  sets.transit_nodes.reserve(sets.offsets.back());
  for (const auto& nodes : per_pair) {
    sets.transit_nodes.insert(sets.transit_nodes.end(), nodes.begin(),
                              nodes.end());
  }
  return sets;
}

}  // namespace

double DefaultDamageRadiusMiles(hazard::HazardType type) {
  switch (type) {
    case hazard::HazardType::kFemaHurricane:
      return 120.0;
    case hazard::HazardType::kFemaTornado:
      return 25.0;
    case hazard::HazardType::kFemaStorm:
      return 60.0;
    case hazard::HazardType::kNoaaEarthquake:
      return 80.0;
    case hazard::HazardType::kNoaaWind:
      return 15.0;
  }
  throw InternalError("unknown HazardType");
}

double OutageSimReport::AffectedRatio() const {
  if (shortest_path_affected <= 0.0) return 1.0;
  return riskroute_affected / shortest_path_affected;
}

OutageSimReport RunOutageSimulation(const core::RiskGraph& graph,
                                    const std::vector<hazard::Catalog>& catalogs,
                                    const TrafficMatrix& traffic,
                                    const OutageSimOptions& options,
                                    util::ThreadPool* pool) {
  if (catalogs.empty()) {
    throw InvalidArgument("RunOutageSimulation: no catalogs");
  }
  if (traffic.size() != graph.node_count()) {
    throw InvalidArgument("RunOutageSimulation: traffic matrix size mismatch");
  }
  if (options.trials == 0) {
    throw InvalidArgument("RunOutageSimulation: trials must be positive");
  }

  const std::size_t n = graph.node_count();
  // One freeze serves both routing schemes' precomputation sweeps.
  const core::RouteEngine engine(graph, options.params);
  const PathSets shortest = PrecomputePaths(engine, /*risk_aware=*/false, pool);
  const PathSets risky = PrecomputePaths(engine, /*risk_aware=*/true, pool);

  // Catalog pick weights proportional to event counts: the simulated event
  // mix matches the historical archive mix.
  std::vector<double> catalog_weights;
  catalog_weights.reserve(catalogs.size());
  for (const hazard::Catalog& c : catalogs) {
    catalog_weights.push_back(static_cast<double>(c.size()));
  }

  util::Rng rng(options.seed);
  OutageSimReport report;
  report.trials = options.trials;
  std::vector<bool> dead(n, false);

  const auto affected_volume = [&](const PathSets& sets) {
    double volume = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || dead[i] || dead[j]) continue;
        const std::uint32_t begin = sets.offsets[i * n + j];
        const std::uint32_t end = sets.offsets[i * n + j + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
          if (dead[sets.transit_nodes[k]]) {
            volume += traffic.demand(i, j);
            break;
          }
        }
      }
    }
    return volume;
  };

  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    const hazard::Catalog& catalog = catalogs[rng.WeightedIndex(catalog_weights)];
    const hazard::Event& event = catalog.events()[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(catalog.size()) - 1))];
    const double radius = options.damage_radius_miles > 0.0
                              ? options.damage_radius_miles
                              : DefaultDamageRadiusMiles(catalog.type());

    std::fill(dead.begin(), dead.end(), false);
    std::size_t disabled = 0;
    double endpoint_volume = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (geo::GreatCircleMiles(graph.node(v).location, event.location) <=
          radius) {
        dead[v] = true;
        ++disabled;
      }
    }
    if (disabled > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i != j && (dead[i] || dead[j])) {
            endpoint_volume += traffic.demand(i, j);
          }
        }
      }
      report.shortest_path_affected += affected_volume(shortest);
      report.riskroute_affected += affected_volume(risky);
    }
    report.endpoint_loss += endpoint_volume;
    report.mean_pops_disabled += static_cast<double>(disabled);
  }

  const auto trials = static_cast<double>(options.trials);
  report.shortest_path_affected /= trials * traffic.total_volume();
  report.riskroute_affected /= trials * traffic.total_volume();
  report.endpoint_loss /= trials * traffic.total_volume();
  report.mean_pops_disabled /= trials;
  return report;
}

}  // namespace riskroute::sim

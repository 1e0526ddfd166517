#include "core/interdomain.h"

#include "geo/distance.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::core {

std::size_t MergedGraph::GlobalId(std::size_t network, std::size_t pop) const {
  if (network >= global_ids.size() || pop >= global_ids[network].size()) {
    throw InvalidArgument(util::Format(
        "MergedGraph: no node for network %zu pop %zu", network, pop));
  }
  return global_ids[network][pop];
}

MergedGraph BuildMergedGraph(
    const topology::Corpus& corpus,
    const std::vector<population::ImpactModel>& impacts,
    const hazard::HistoricalRiskField& hazard_field,
    const MergeOptions& options) {
  if (impacts.size() != corpus.network_count()) {
    throw InvalidArgument(util::Format(
        "BuildMergedGraph: %zu impact models for %zu networks",
        impacts.size(), corpus.network_count()));
  }
  MergedGraph merged;
  merged.global_ids.resize(corpus.network_count());

  // Nodes: every PoP of every network, with its own network's impact
  // fraction and the shared historical hazard field. Risks come per
  // network from the batch path (or the caller's memoized cache).
  for (std::size_t n = 0; n < corpus.network_count(); ++n) {
    const topology::Network& network = corpus.network(n);
    const std::vector<double> risks =
        options.risk_cache != nullptr ? options.risk_cache->PopRisks(network)
                                      : hazard_field.PopRisks(network);
    merged.global_ids[n].resize(network.pop_count());
    for (std::size_t p = 0; p < network.pop_count(); ++p) {
      const topology::Pop& pop = network.pop(p);
      const std::size_t id = merged.graph.AddNode(RiskNode{
          network.name() + ":" + pop.name, pop.location,
          impacts[n].fraction(p), risks[p], 0.0});
      merged.global_ids[n][p] = id;
      merged.origin.push_back(MergedNode{n, p});
    }
  }

  // Intradomain links.
  for (std::size_t n = 0; n < corpus.network_count(); ++n) {
    for (const topology::Link& link : corpus.network(n).links()) {
      merged.graph.AddEdgeByDistance(merged.global_ids[n][link.a],
                                     merged.global_ids[n][link.b]);
    }
  }

  // Peering edges: for each AS peering and each PoP of one side, connect
  // to the nearest co-located PoP of the other side (if within radius).
  for (const topology::Peering& peering : corpus.peerings()) {
    const topology::Network& na = corpus.network(peering.a);
    const topology::Network& nb = corpus.network(peering.b);
    for (std::size_t pa = 0; pa < na.pop_count(); ++pa) {
      const std::size_t pb = nb.NearestPop(na.pop(pa).location);
      const double miles =
          geo::GreatCircleMiles(na.pop(pa).location, nb.pop(pb).location);
      if (miles <= options.colocation_radius_miles) {
        const std::size_t ga = merged.global_ids[peering.a][pa];
        const std::size_t gb = merged.global_ids[peering.b][pb];
        if (!merged.graph.HasEdge(ga, gb)) {
          merged.graph.AddEdge(ga, gb, miles);
          merged.peering_edges.emplace_back(ga, gb);
        }
      }
    }
  }
  return merged;
}

std::vector<std::size_t> RegionalTargets(const MergedGraph& merged,
                                         const topology::Corpus& corpus) {
  std::vector<std::size_t> targets;
  for (const std::size_t n :
       corpus.NetworksOfKind(topology::NetworkKind::kRegional)) {
    for (const std::size_t id : merged.global_ids[n]) targets.push_back(id);
  }
  return targets;
}

RatioReport InterdomainRatios(const RouteEngine& engine,
                              const MergedGraph& merged,
                              const topology::Corpus& corpus,
                              std::size_t network_index,
                              util::ThreadPool* pool) {
  if (network_index >= corpus.network_count()) {
    throw InvalidArgument("InterdomainRatios: network index out of range");
  }
  const std::vector<std::size_t>& sources = merged.global_ids[network_index];
  const std::vector<std::size_t> targets = RegionalTargets(merged, corpus);
  return engine.ComputeRatios(sources, targets, pool);
}

}  // namespace riskroute::core

// Interdomain RiskRoute (paper Section 6.2).
//
// For traffic crossing multiple networks, the paper brackets the bit-risk
// miles between an upper bound — geographic shortest-path routing through
// all peering networks — and a lower bound — RiskRoute with control over
// every network's routing. Both are computed on a merged graph containing
// every network's PoPs and links plus peering edges between co-located
// PoPs of AS-adjacent networks.
#pragma once

#include <cstddef>
#include <vector>

#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "hazard/risk_field.h"
#include "population/assignment.h"
#include "topology/corpus.h"
#include "util/thread_pool.h"

namespace riskroute::core {

/// Identifies a merged-graph node's origin.
struct MergedNode {
  std::size_t network = 0;  // index into the corpus
  std::size_t pop = 0;      // PoP index within that network
};

/// The corpus-wide routing substrate.
struct MergedGraph {
  RiskGraph graph;
  std::vector<MergedNode> origin;                    // global -> (net, pop)
  std::vector<std::vector<std::size_t>> global_ids;  // [net][pop] -> global
  /// Realized peering edges (global node pairs), for reporting.
  std::vector<std::pair<std::size_t, std::size_t>> peering_edges;

  [[nodiscard]] std::size_t GlobalId(std::size_t network, std::size_t pop) const;
};

/// Options for merged-graph construction.
struct MergeOptions {
  /// Two PoPs of AS-adjacent networks peer when within this distance
  /// (the paper's "co-located" infrastructure).
  double colocation_radius_miles = 25.0;
  /// Optional memoized risk lookup. When set (e.g. to a Study's warmed
  /// cache) node risks come from it instead of fresh KDE evaluations.
  const hazard::RiskFieldCache* risk_cache = nullptr;
};

/// Builds the merged graph. `impacts` must hold one ImpactModel per corpus
/// network (same order).
[[nodiscard]] MergedGraph BuildMergedGraph(
    const topology::Corpus& corpus,
    const std::vector<population::ImpactModel>& impacts,
    const hazard::HistoricalRiskField& hazard_field,
    const MergeOptions& options = {});

/// Interdomain Eq 5 / Eq 6 ratios for one network, following the paper's
/// Section 7 evaluation: every PoP of `network_index` is a source, and the
/// targets are all PoPs of every regional network in the corpus. The
/// shortest-path result is the paper's upper bound; the RiskRoute result
/// its lower bound; the report compares the two. `engine` must be frozen
/// from `merged.graph`; freeze it once and reuse it across networks.
[[nodiscard]] RatioReport InterdomainRatios(const RouteEngine& engine,
                                            const MergedGraph& merged,
                                            const topology::Corpus& corpus,
                                            std::size_t network_index,
                                            util::ThreadPool* pool = nullptr);

/// Global node ids of all PoPs of every regional network (the paper's
/// interdomain destination set).
[[nodiscard]] std::vector<std::size_t> RegionalTargets(
    const MergedGraph& merged, const topology::Corpus& corpus);

}  // namespace riskroute::core

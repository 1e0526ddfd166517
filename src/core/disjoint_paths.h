// Suurballe/Bhandari disjoint path pairs.
//
// A backup path that shares a link — or a disaster-prone node — with the
// primary fails with it. The gold standard for the paper's backup-route
// objective (Section 3) is therefore a *disjoint pair*: two paths sharing
// no link (or no intermediate node) whose total weight is minimal. This
// module implements Suurballe's algorithm over the bit-risk edge weight:
// shortest-tree potentials, reduced costs, a second Dijkstra on the
// residual graph with the first path's arcs reversed, and the standard
// overlap-cancellation recovery of the two paths. Node-disjointness comes
// from the usual node-splitting transform.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/route_engine.h"

namespace riskroute::core {

/// A disjoint pair; `total_weight` is the sum of both paths' weights under
/// the requested alpha.
struct DisjointPathPair {
  Path first;
  Path second;
  double total_weight = 0.0;
};

/// Disjointness flavour.
enum class Disjointness {
  kEdgeDisjoint,  // no shared undirected link
  kNodeDisjoint,  // no shared node except the endpoints
};

/// Minimum-total-weight disjoint path pair between `source` and `target`
/// under the engine's link weight miles + alpha * score (alpha = 0 is the
/// distance metric), or nullopt when the frozen graph does not admit one.
/// Throws on bad node indices or source == target.
[[nodiscard]] std::optional<DisjointPathPair> FindDisjointPair(
    const RouteEngine& engine, std::size_t source, std::size_t target,
    double alpha, Disjointness disjointness = Disjointness::kNodeDisjoint);

}  // namespace riskroute::core

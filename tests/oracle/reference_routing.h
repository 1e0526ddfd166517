// Reference routing oracle shared by the differential tests and the bench
// legacy comparators. Test-only: nothing under src/ includes it.
//
// It keeps the pre-engine way of routing over a mutable RiskGraph, kept
// deliberately naive: a Dijkstra that walks adjacency lists through a
// per-edge weight callback with a freshly allocated std::priority_queue
// per run, the Equation 1 per-edge weight recomputed from graph.node()
// lookups, and exhaustive loopless-path enumeration. RouteEngine sweeps
// must match it bitwise — same distances, same parent chains — because
// the engine's CSR rows keep adjacency-list order and its risk plane
// holds the same Eq 1 node term. A callback that returns +infinity masks
// an edge: the candidate distance is never below the current one, so the
// edge is never relaxed, exactly as if it were absent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/shortest_path.h"
#include "util/error.h"

namespace riskroute::oracle {

/// lambda_h * o_h(v) + lambda_f * o_f(v): the Eq 1 node term.
inline double NodeScore(const core::RiskGraph& graph,
                        const core::RiskParams& params, std::size_t v) {
  const core::RiskNode& node = graph.node(v);
  return params.lambda_historical * node.historical_risk +
         params.lambda_forecast * node.forecast_risk;
}

/// alpha_ij = c_i + c_j.
inline double Alpha(const core::RiskGraph& graph, std::size_t i,
                    std::size_t j) {
  return graph.node(i).impact_fraction + graph.node(j).impact_fraction;
}

/// The Eq 1 per-edge weight at a fixed pair scale: miles(u, v) +
/// alpha * score(v). alpha = 0 is the plain distance metric.
struct BitRiskWeight {
  const core::RiskGraph* graph;
  core::RiskParams params;
  double alpha;

  double operator()(std::size_t /*from*/, const core::RiskEdge& edge) const {
    return edge.miles + alpha * NodeScore(*graph, params, edge.to);
  }
};

/// Single-source Dijkstra over a RiskGraph under `weight(from, edge)`,
/// which must be non-negative. Stops once `target` is settled.
class Dijkstra {
 public:
  template <typename WeightFn>
  void Run(const core::RiskGraph& graph, std::size_t source,
           WeightFn&& weight,
           std::optional<std::size_t> target = std::nullopt) {
    const std::size_t n = graph.node_count();
    source_ = source;
    dist_.assign(n, std::numeric_limits<double>::infinity());
    parent_.assign(n, n);  // n = "no parent"
    settled_.assign(n, false);
    dist_[source] = 0.0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    queue.push(Entry{0.0, source});
    while (!queue.empty()) {
      const Entry top = queue.top();
      queue.pop();
      if (settled_[top.node]) continue;
      settled_[top.node] = true;
      if (target && top.node == *target) return;
      for (const core::RiskEdge& edge : graph.OutEdges(top.node)) {
        if (settled_[edge.to]) continue;
        const double candidate = dist_[top.node] + weight(top.node, edge);
        if (candidate < dist_[edge.to]) {
          dist_[edge.to] = candidate;
          parent_[edge.to] = top.node;
          queue.push(Entry{candidate, edge.to});
        }
      }
    }
  }

  [[nodiscard]] double DistanceTo(std::size_t node) const {
    return dist_[node];
  }
  [[nodiscard]] bool Reached(std::size_t node) const {
    return dist_[node] < std::numeric_limits<double>::infinity();
  }
  /// source -> node along the parent chain of the last Run.
  [[nodiscard]] core::Path PathTo(std::size_t node) const {
    core::Path path{node};
    while (path.back() != source_) path.push_back(parent_[path.back()]);
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  struct Entry {
    double dist;
    std::size_t node;
    bool operator>(const Entry& other) const { return dist > other.dist; }
  };

  std::vector<double> dist_;
  std::vector<std::size_t> parent_;
  std::vector<bool> settled_;
  std::size_t source_ = 0;
};

/// Eq 4 the pre-engine way: one targeted Dijkstra per unordered pair
/// (j > i), per-source sums added in source order — the summation order
/// RouteEngine::AggregateMinBitRisk reproduces bitwise.
inline double AggregateMinBitRisk(const core::RiskGraph& graph,
                                  const core::RiskParams& params) {
  const std::size_t n = graph.node_count();
  Dijkstra workspace;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      workspace.Run(graph, i, BitRiskWeight{&graph, params, Alpha(graph, i, j)},
                    j);
      if (workspace.Reached(j)) sum += workspace.DistanceTo(j);
    }
    total += sum;
  }
  return total;
}

/// Folds `weight` over a path's hops in path order — the summation order
/// RouteEngine::PathWeight uses. Throws InvalidArgument on a missing edge.
template <typename WeightFn>
double PathWeight(const core::RiskGraph& graph, const core::Path& path,
                  WeightFn&& weight) {
  double total = 0.0;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const auto& edges = graph.OutEdges(path[k - 1]);
    const auto it =
        std::find_if(edges.begin(), edges.end(),
                     [&](const core::RiskEdge& e) { return e.to == path[k]; });
    if (it == edges.end()) throw InvalidArgument("oracle: missing edge");
    total += weight(path[k - 1], *it);
  }
  return total;
}

/// Every loopless path from `source` to `target`, by depth-first search
/// in adjacency order (small graphs only: the count is exponential).
inline std::vector<core::Path> LooplessPaths(const core::RiskGraph& graph,
                                             std::size_t source,
                                             std::size_t target) {
  std::vector<core::Path> out;
  core::Path current{source};
  std::vector<bool> visited(graph.node_count(), false);
  visited[source] = true;
  const auto visit = [&](const auto& self, std::size_t node) -> void {
    if (node == target) {
      out.push_back(current);
      return;
    }
    for (const core::RiskEdge& e : graph.OutEdges(node)) {
      if (visited[e.to]) continue;
      visited[e.to] = true;
      current.push_back(e.to);
      self(self, e.to);
      current.pop_back();
      visited[e.to] = false;
    }
  };
  visit(visit, source);
  return out;
}

}  // namespace riskroute::oracle

#include "core/disjoint_paths.h"

#include <algorithm>
#include <limits>
#include <map>

#include "util/error.h"

namespace riskroute::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Directed arc in the (possibly node-split) working graph.
struct Arc {
  std::size_t from;
  std::size_t to;
  double weight;
};

/// Working graph: arc list + adjacency indices.
struct ArcGraph {
  std::size_t node_count = 0;
  std::vector<Arc> arcs;
  std::vector<std::vector<std::size_t>> out;  // node -> arc indices

  void AddArc(std::size_t from, std::size_t to, double weight) {
    out[from].push_back(arcs.size());
    arcs.push_back(Arc{from, to, weight});
  }
};

/// Builds the working graph. With node splitting, original node i becomes
/// in-node 2i and out-node 2i+1 joined by a zero-weight arc; undirected
/// links become u_out -> v_in arcs both ways. Without splitting, node i
/// maps to itself.
ArcGraph BuildArcGraph(const RouteEngine& engine, double alpha,
                       bool split_nodes) {
  const std::size_t n = engine.node_count();
  ArcGraph work;
  work.node_count = split_nodes ? 2 * n : n;
  work.out.resize(work.node_count);
  if (split_nodes) {
    for (std::size_t v = 0; v < n; ++v) {
      work.AddArc(2 * v, 2 * v + 1, 0.0);  // in -> out
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t e = engine.EdgeBegin(u); e < engine.EdgeEnd(u); ++e) {
      const std::size_t to = engine.EdgeHead(e);
      const double w = engine.EdgeMiles(e) + alpha * engine.EdgeRisk(e);
      if (w < 0.0) {
        throw InvalidArgument("FindDisjointPair: negative edge weight");
      }
      if (split_nodes) {
        work.AddArc(2 * u + 1, 2 * to, w);
      } else {
        work.AddArc(u, to, w);
      }
    }
  }
  return work;
}

/// Bellman-Ford (handles the negative reversed arcs of the residual
/// graph); returns parent arc indices, or empty if target unreachable.
std::vector<std::size_t> BellmanFord(const ArcGraph& graph,
                                     const std::vector<bool>& arc_enabled,
                                     std::size_t source, std::size_t target) {
  std::vector<double> dist(graph.node_count, kInf);
  std::vector<std::size_t> parent_arc(graph.node_count,
                                      graph.arcs.size());  // sentinel
  dist[source] = 0.0;
  for (std::size_t round = 0; round + 1 < graph.node_count; ++round) {
    bool changed = false;
    for (std::size_t a = 0; a < graph.arcs.size(); ++a) {
      if (!arc_enabled[a]) continue;
      const Arc& arc = graph.arcs[a];
      if (dist[arc.from] == kInf) continue;
      const double candidate = dist[arc.from] + arc.weight;
      if (candidate < dist[arc.to] - 1e-12) {
        dist[arc.to] = candidate;
        parent_arc[arc.to] = a;
        changed = true;
      }
    }
    if (!changed) break;
  }
  if (dist[target] == kInf) return {};
  // Reconstruct the arc sequence target <- source.
  std::vector<std::size_t> path_arcs;
  std::size_t cursor = target;
  while (cursor != source) {
    const std::size_t a = parent_arc[cursor];
    if (a == graph.arcs.size()) {
      throw InternalError("FindDisjointPair: broken Bellman-Ford chain");
    }
    path_arcs.push_back(a);
    cursor = graph.arcs[a].from;
  }
  std::reverse(path_arcs.begin(), path_arcs.end());
  return path_arcs;
}

/// Maps a split-space node sequence back to original node ids, collapsing
/// in/out duplicates; identity when not split.
Path Unsplit(const std::vector<std::size_t>& nodes, bool split_nodes) {
  Path path;
  for (const std::size_t v : nodes) {
    const std::size_t original = split_nodes ? v / 2 : v;
    if (path.empty() || path.back() != original) path.push_back(original);
  }
  return path;
}

}  // namespace

std::optional<DisjointPathPair> FindDisjointPair(const RouteEngine& engine,
                                                 std::size_t source,
                                                 std::size_t target,
                                                 double alpha,
                                                 Disjointness disjointness) {
  const std::size_t n = engine.node_count();
  if (source >= n || target >= n) {
    throw InvalidArgument("FindDisjointPair: node out of range");
  }
  if (source == target) {
    throw InvalidArgument("FindDisjointPair: source equals target");
  }
  const bool split = disjointness == Disjointness::kNodeDisjoint;
  ArcGraph work = BuildArcGraph(engine, alpha, split);
  const std::size_t s = split ? 2 * source + 1 : source;  // leave from out
  const std::size_t t = split ? 2 * target : target;      // arrive at in

  std::vector<bool> enabled(work.arcs.size(), true);

  // First shortest path (Bellman-Ford doubles as our Dijkstra here; the
  // graphs are small and it keeps one code path).
  const std::vector<std::size_t> p1_arcs = BellmanFord(work, enabled, s, t);
  if (p1_arcs.empty()) return std::nullopt;

  // Residual: reverse P1's arcs with negated weight.
  for (const std::size_t a : p1_arcs) {
    const Arc arc = work.arcs[a];
    enabled[a] = false;
    enabled.push_back(true);
    work.AddArc(arc.to, arc.from, -arc.weight);
  }

  const std::vector<std::size_t> p2_arcs = BellmanFord(work, enabled, s, t);
  if (p2_arcs.empty()) return std::nullopt;

  // Union of P1 and P2 arcs with anti-parallel cancellation: an arc of P1
  // whose reverse was used by P2 drops out (and vice versa).
  std::map<std::pair<std::size_t, std::size_t>, int> flow;
  const auto add_flow = [&](const std::vector<std::size_t>& arcs) {
    for (const std::size_t a : arcs) {
      const Arc& arc = work.arcs[a];
      flow[{arc.from, arc.to}] += 1;
      const auto reverse_it = flow.find({arc.to, arc.from});
      if (reverse_it != flow.end() && reverse_it->second > 0 &&
          flow[{arc.from, arc.to}] > 0) {
        flow[{arc.from, arc.to}] -= 1;
        reverse_it->second -= 1;
      }
    }
  };
  add_flow(p1_arcs);
  add_flow(p2_arcs);

  // Decompose the remaining flow into two s->t walks.
  std::multimap<std::size_t, std::size_t> next;  // from -> to
  for (const auto& [key, count] : flow) {
    for (int c = 0; c < count; ++c) next.insert({key.first, key.second});
  }
  const auto walk = [&]() -> std::vector<std::size_t> {
    std::vector<std::size_t> nodes{s};
    std::size_t cursor = s;
    while (cursor != t) {
      const auto it = next.find(cursor);
      if (it == next.end()) {
        throw InternalError("FindDisjointPair: flow decomposition stuck");
      }
      cursor = it->second;
      next.erase(it);
      nodes.push_back(cursor);
    }
    return nodes;
  };
  DisjointPathPair pair;
  pair.first = Unsplit(walk(), split);
  pair.second = Unsplit(walk(), split);

  // Total weight from the recovered paths under the original objective.
  const double first_weight = engine.PathWeight(pair.first, alpha);
  const double second_weight = engine.PathWeight(pair.second, alpha);
  pair.total_weight = first_weight + second_weight;
  // Convention: report the lighter path first (the primary).
  if (second_weight < first_weight) std::swap(pair.first, pair.second);
  return pair;
}

}  // namespace riskroute::core

#include "core/k_shortest.h"

#include <algorithm>
#include <set>

#include "util/error.h"

namespace riskroute::core {

std::vector<WeightedPath> KShortestPaths(const RouteEngine& engine,
                                         std::size_t source,
                                         std::size_t target, std::size_t k,
                                         double alpha,
                                         const EdgeOverlay* base) {
  if (k == 0) throw InvalidArgument("KShortestPaths: k must be positive");
  if (source >= engine.node_count() || target >= engine.node_count()) {
    throw InvalidArgument("KShortestPaths: node out of range");
  }
  if (source == target) {
    return {WeightedPath{{}, Path{source}, 0.0}};
  }

  std::vector<WeightedPath> accepted;
  auto compare = [](const WeightedPath& a, const WeightedPath& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.path < b.path;
  };
  std::set<WeightedPath, decltype(compare)> candidates(compare);

  {
    const auto first = engine.FindPath(source, target, alpha, base);
    if (!first) return {};
    accepted.push_back(
        WeightedPath{{}, *first, engine.PathWeight(*first, alpha, base)});
  }

  EdgeOverlay masked;
  DijkstraWorkspace workspace;

  while (accepted.size() < k) {
    const Path& previous = accepted.back().path;
    // Each prefix of the last accepted path spawns a spur candidate.
    for (std::size_t spur = 0; spur + 1 < previous.size(); ++spur) {
      const Path root(previous.begin(),
                      previous.begin() + static_cast<std::ptrdiff_t>(spur) + 1);

      masked = base != nullptr ? *base : EdgeOverlay{};
      // Remove edges used by already-accepted paths sharing this root.
      for (const WeightedPath& wp : accepted) {
        if (wp.path.size() > spur + 1 &&
            std::equal(root.begin(), root.end(), wp.path.begin())) {
          masked.RemoveDirectedEdge(wp.path[spur], wp.path[spur + 1]);
        }
      }
      // Remove root nodes except the spur node (looplessness).
      for (std::size_t i = 0; i < spur; ++i) masked.DisableNode(root[i]);

      engine.Run(workspace, root.back(), alpha, target, &masked);
      if (!workspace.Reached(target)) continue;
      const Path spur_path = workspace.PathTo(target);

      Path candidate = root;
      candidate.insert(candidate.end(), spur_path.begin() + 1,
                       spur_path.end());
      const double w = engine.PathWeight(candidate, alpha, base);
      candidates.insert(WeightedPath{{}, std::move(candidate), w});
    }
    if (candidates.empty()) break;
    // Promote the best unseen candidate.
    WeightedPath best = *candidates.begin();
    candidates.erase(candidates.begin());
    const bool duplicate =
        std::any_of(accepted.begin(), accepted.end(),
                    [&](const WeightedPath& wp) { return wp.path == best.path; });
    if (!duplicate) accepted.push_back(std::move(best));
  }
  // Fill the shared PathMetrics from the frozen planes; a k-path caller
  // reads the same field names as every other routing surface.
  for (WeightedPath& wp : accepted) {
    wp.miles = engine.PathMiles(wp.path, base);
    wp.bit_risk_miles = engine.PathBitRiskMiles(wp.path, base);
  }
  return accepted;
}

}  // namespace riskroute::core

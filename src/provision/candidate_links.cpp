#include "provision/candidate_links.h"

#include <algorithm>

#include "core/shortest_path.h"
#include "geo/distance.h"

namespace riskroute::provision {

std::vector<CandidateLink> EnumerateCandidateLinks(
    const core::RouteEngine& engine, const CandidateOptions& options,
    util::ThreadPool* pool) {
  const std::size_t n = engine.node_count();
  std::vector<std::vector<CandidateLink>> per_source(n);

  const auto body = [&](std::size_t i) {
    thread_local core::DijkstraWorkspace workspace;
    engine.RunDistance(workspace, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (engine.HasEdge(i, j) || !workspace.Reached(j)) continue;
      const double current = workspace.DistanceTo(j);
      const double direct =
          geo::GreatCircleMiles(engine.location(i), engine.location(j));
      if (direct < (1.0 - options.min_mile_reduction) * current) {
        per_source[i].push_back(CandidateLink{i, j, direct, current});
      }
    }
  };
  util::ParallelFor(pool, n, body);

  std::vector<CandidateLink> candidates;
  for (const auto& local : per_source) {
    candidates.insert(candidates.end(), local.begin(), local.end());
  }
  if (options.max_candidates > 0 && candidates.size() > options.max_candidates) {
    // Keep the largest absolute mile savers; they dominate the Eq 4 gain.
    std::nth_element(candidates.begin(),
                     candidates.begin() +
                         static_cast<std::ptrdiff_t>(options.max_candidates),
                     candidates.end(),
                     [](const CandidateLink& x, const CandidateLink& y) {
                       return x.current_path_miles - x.direct_miles >
                              y.current_path_miles - y.direct_miles;
                     });
    candidates.resize(options.max_candidates);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidateLink& x, const CandidateLink& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return candidates;
}

}  // namespace riskroute::provision

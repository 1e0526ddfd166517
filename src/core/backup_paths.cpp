#include "core/backup_paths.h"

#include "util/error.h"

namespace riskroute::core {

RoutingTable BuildRoutingTable(const RouteEngine& engine, double alpha,
                               util::ThreadPool* pool,
                               const EdgeOverlay* overlay) {
  const std::size_t n = engine.node_count();
  RoutingTable table;
  table.next_hop.assign(n, std::vector<std::size_t>(n, RoutingTable::kUnreachable));
  table.dist.assign(n, std::vector<double>(n, DijkstraWorkspace::Infinity()));
  const auto body = [&](std::size_t s) {
    thread_local DijkstraWorkspace workspace;
    engine.Run(workspace, s, alpha, std::nullopt, overlay);
    for (std::size_t d = 0; d < n; ++d) {
      if (!workspace.Reached(d)) continue;
      table.dist[s][d] = workspace.DistanceTo(d);
      if (d == s) {
        table.next_hop[s][d] = s;
      } else {
        table.next_hop[s][d] = workspace.PathTo(d)[1];
      }
    }
  };
  util::ParallelFor(pool, n, body);
  return table;
}

std::vector<std::vector<LfaEntry>> ComputeLfas(const RouteEngine& engine,
                                               const RoutingTable& table) {
  const std::size_t n = engine.node_count();
  if (table.dist.size() != n) {
    throw InvalidArgument("ComputeLfas: table does not match engine");
  }
  std::vector<std::vector<LfaEntry>> lfas(n, std::vector<LfaEntry>(n));
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      LfaEntry& entry = lfas[s][d];
      entry.primary_next_hop = table.next_hop[s][d];
      if (d == s || entry.primary_next_hop == RoutingTable::kUnreachable) {
        continue;
      }
      for (std::size_t e = engine.EdgeBegin(s); e < engine.EdgeEnd(s); ++e) {
        const std::size_t neighbor = engine.EdgeHead(e);
        if (neighbor == entry.primary_next_hop) continue;
        // RFC 5286 basic loop-free condition.
        if (table.dist[neighbor][d] <
            table.dist[neighbor][s] + table.dist[s][d]) {
          entry.alternates.push_back(neighbor);
        }
      }
    }
  }
  return lfas;
}

double LfaCoverage(const std::vector<std::vector<LfaEntry>>& lfas) {
  std::size_t routable = 0;
  std::size_t protected_pairs = 0;
  for (std::size_t s = 0; s < lfas.size(); ++s) {
    for (std::size_t d = 0; d < lfas[s].size(); ++d) {
      if (d == s) continue;
      const LfaEntry& entry = lfas[s][d];
      if (entry.primary_next_hop == RoutingTable::kUnreachable) continue;
      ++routable;
      if (!entry.alternates.empty()) ++protected_pairs;
    }
  }
  if (routable == 0) return 0.0;
  return static_cast<double>(protected_pairs) / static_cast<double>(routable);
}

std::optional<Path> LinkBypass(const RouteEngine& engine, std::size_t u,
                               std::size_t v, double alpha) {
  if (!engine.HasEdge(u, v)) {
    throw InvalidArgument("LinkBypass: protected link does not exist");
  }
  EdgeOverlay overlay;
  overlay.RemoveEdge(u, v);
  return engine.FindPath(u, v, alpha, &overlay);
}

std::optional<Path> NodeBypass(const RouteEngine& engine, std::size_t u,
                               std::size_t dst, std::size_t protect,
                               double alpha) {
  if (protect == u || protect == dst) {
    throw InvalidArgument("NodeBypass: cannot protect an endpoint");
  }
  if (protect >= engine.node_count()) {
    throw InvalidArgument("NodeBypass: protected node out of range");
  }
  EdgeOverlay overlay;
  overlay.DisableNode(protect);
  return engine.FindPath(u, dst, alpha, &overlay);
}

}  // namespace riskroute::core

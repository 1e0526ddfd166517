#include "core/pair_routes.h"

#include <limits>
#include <numeric>

#include "core/shortest_path.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::core {

PairRoutes::PairRoutes(const RouteEngine& engine, util::ThreadPool* pool,
                       RouteMetric metric)
    : engine_(&engine), metric_(metric) {
  const std::size_t n = engine.node_count();
  const std::size_t pairs = n >= 2 ? n * (n - 1) / 2 : 0;
  dist_.assign(pairs, std::numeric_limits<double>::infinity());
  offsets_.assign(pairs + 1, 0);

  // One targeted sweep per pair, or one distance sweep per row. Each
  // source writes its own row of slots and its own node buffer; the
  // buffers are concatenated in row order afterwards, so the layout does
  // not depend on the thread schedule.
  std::vector<std::vector<std::uint32_t>> row_nodes(n >= 2 ? n - 1 : 0);
  util::ParallelFor(pool, row_nodes.size(), [&](std::size_t i) {
    thread_local DijkstraWorkspace ws;
    const std::size_t first = Slot(i, i + 1);
    if (metric == RouteMetric::kDistance) engine.RunDistance(ws, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (metric == RouteMetric::kBitRisk) {
        engine.Run(ws, i, engine.Alpha(i, j), j);
      }
      if (!ws.Reached(j)) continue;
      const std::size_t slot = first + (j - i - 1);
      dist_[slot] = ws.DistanceTo(j);
      const Path path = ws.PathTo(j);
      offsets_[slot + 1] = path.size();
      row_nodes[i].insert(row_nodes[i].end(), path.begin(), path.end());
    }
  });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  nodes_.reserve(offsets_.back());
  for (std::vector<std::uint32_t>& row : row_nodes) {
    nodes_.insert(nodes_.end(), row.begin(), row.end());
    row = {};
  }
  obs::MetricsRegistry::Global().GetCounter("core.pair_routes.builds").Add();
}

std::size_t PairRoutes::Slot(std::size_t i, std::size_t j) const {
  const std::size_t n = engine_->node_count();
  if (i >= j || j >= n) {
    throw InvalidArgument(
        util::Format("PairRoutes: bad pair (%zu, %zu)", i, j));
  }
  // Row i starts after the rows above it: (n-1) + (n-2) + ... + (n-i).
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

std::pair<std::size_t, std::size_t> PairRoutes::Endpoints(
    std::size_t slot) const {
  std::size_t i = 0;
  for (std::size_t row = engine_->node_count() - 1; slot >= row; --row) {
    slot -= row;
    ++i;
  }
  return {i, i + 1 + slot};
}

}  // namespace riskroute::core

#include "core/pair_routes.h"

#include <bit>
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
  if (pairs > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument(
        util::Format("PairRoutes: %zu pairs overflow uint32 slots", pairs));
  }
  dist_.assign(pairs, std::numeric_limits<double>::infinity());
  offsets_.assign(pairs + 1, 0);

  // One targeted sweep per pair, or one distance sweep per row. Each
  // source writes its own row of slots and its own node and hop-link
  // buffers; the buffers are read back in row order afterwards, so the
  // layout does not depend on the thread schedule.
  std::vector<std::vector<std::uint32_t>> row_nodes(n >= 2 ? n - 1 : 0);
  std::vector<std::vector<std::uint32_t>> row_links(row_nodes.size());
  util::ParallelFor(pool, row_nodes.size(), [&](std::size_t i) {
    thread_local DijkstraWorkspace ws;
    const std::size_t first = RowStart(i);
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
      // Each hop follows a frozen edge the sweep relaxed: find its link.
      for (std::size_t h = 1; h < path.size(); ++h) {
        std::size_t e = engine.EdgeBegin(path[h - 1]);
        while (engine.EdgeHead(e) != path[h]) ++e;
        row_links[i].push_back(engine.EdgeLink(e));
      }
    }
  });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  nodes_.reserve(offsets_.back());
  for (std::vector<std::uint32_t>& row : row_nodes) {
    nodes_.insert(nodes_.end(), row.begin(), row.end());
    row = {};
  }

  // The inverse of the path store: count each link's hops, then place
  // slots in ascending order, so every list comes out sorted.
  link_offsets_.assign(engine.link_count() + 1, 0);
  for (const std::vector<std::uint32_t>& row : row_links) {
    for (const std::uint32_t link : row) ++link_offsets_[link + 1];
  }
  std::partial_sum(link_offsets_.begin(), link_offsets_.end(),
                   link_offsets_.begin());
  link_slots_.resize(link_offsets_.back());
  std::vector<std::size_t> fill(link_offsets_.begin(),
                                link_offsets_.end() - 1);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < row_links.size(); ++i) {
    const std::uint32_t* hop = row_links[i].data();
    for (std::size_t j = i + 1; j < n; ++j, ++slot) {
      for (std::size_t h = offsets_[slot] + 1; h < offsets_[slot + 1]; ++h) {
        link_slots_[fill[*hop++]++] = static_cast<std::uint32_t>(slot);
      }
    }
    row_links[i] = {};
  }
  obs::MetricsRegistry::Global().GetCounter("core.pair_routes.builds").Add();
}

std::size_t PairRoutes::Slot(std::size_t i, std::size_t j) const {
  const std::size_t n = engine_->node_count();
  if (i >= j || j >= n) {
    throw InvalidArgument(
        util::Format("PairRoutes: bad pair (%zu, %zu)", i, j));
  }
  return RowStart(i) + (j - i - 1);
}

std::pair<std::size_t, std::size_t> PairRoutes::Endpoints(
    std::size_t slot) const {
  // The last row whose first slot is <= slot; rows are 0 .. n-2.
  std::size_t lo = 0;
  std::size_t hi = engine_->node_count() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (RowStart(mid) <= slot ? lo : hi) = mid;
  }
  return {lo, lo + 1 + (slot - RowStart(lo))};
}

std::vector<std::uint32_t> PairRoutes::SlotsCrossing(
    std::span<const std::uint32_t> links) const {
  // A footprint lists a pair once per link its path crosses, so marking
  // a bitmap of every slot and scanning it in order beats sorting the
  // concatenated lists.
  std::vector<std::uint64_t> marks((pair_count() + 63) / 64, 0);
  for (const std::uint32_t link : links) {
    for (const std::uint32_t s : LinkSlots(link)) {
      marks[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
  std::vector<std::uint32_t> out;
  for (std::size_t w = 0; w < marks.size(); ++w) {
    for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<std::uint32_t>(w * 64 +
                                               std::countr_zero(bits)));
    }
  }
  return out;
}

}  // namespace riskroute::core

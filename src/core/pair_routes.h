// PairRoutes: one routed answer for every unordered PoP pair of one
// frozen RouteEngine. Under RouteMetric::kBitRisk it is the RiskRoute
// baseline the engine's online questions are answered against: the
// ensemble scores each sampled outage as a delta from it, the streaming
// session each advisory (paper Section 7.3), and the outage simulation
// routes traffic over its paths. Under kDistance it is the geographic
// shortest path the outage simulation compares against.
//
// kBitRisk runs one targeted sweep per pair i < j at alpha_ij
// (goal-directed iff the engine has ALT landmarks); kDistance runs one
// full RunDistance sweep per row, whose tree answers every j > i. Rows
// run parallel over sources, so every weight and parent chain is bitwise
// thread-count independent. Pairs live in upper-triangle slot order (row
// i holds j = i+1 .. n-1); settled paths are flattened into one uint32
// node-id array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/route_engine.h"
#include "util/thread_pool.h"

namespace riskroute::core {

class PairRoutes {
 public:
  /// Sweeps every pair once under `metric`; `pool` may be null (serial).
  /// The engine must outlive the table. Counts `core.pair_routes.builds`
  /// (stable).
  explicit PairRoutes(const RouteEngine& engine,
                      util::ThreadPool* pool = nullptr,
                      RouteMetric metric = RouteMetric::kBitRisk);

  [[nodiscard]] const RouteEngine& engine() const { return *engine_; }
  [[nodiscard]] RouteMetric metric() const { return metric_; }
  [[nodiscard]] std::size_t pair_count() const { return dist_.size(); }

  /// Slot of the pair (i, j); throws InvalidArgument unless i < j < n.
  [[nodiscard]] std::size_t Slot(std::size_t i, std::size_t j) const;
  /// The pair (i, j) stored at `slot` < pair_count(): Slot's inverse.
  [[nodiscard]] std::pair<std::size_t, std::size_t> Endpoints(
      std::size_t slot) const;

  /// The pair's path weight under metric(): bit-risk miles (kBitRisk) or
  /// miles (kDistance); +infinity when the pair is unreachable.
  [[nodiscard]] double Weight(std::size_t slot) const {
    return dist_[slot];
  }
  /// The pair's settled path, source first; empty when unreachable.
  [[nodiscard]] std::span<const std::uint32_t> PathNodes(
      std::size_t slot) const {
    return {nodes_.data() + offsets_[slot],
            offsets_[slot + 1] - offsets_[slot]};
  }

 private:
  const RouteEngine* engine_;
  RouteMetric metric_;
  std::vector<double> dist_;
  std::vector<std::size_t> offsets_;  // pair_count() + 1
  std::vector<std::uint32_t> nodes_;
};

}  // namespace riskroute::core

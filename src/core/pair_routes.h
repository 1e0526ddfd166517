// PairRoutes: the RiskRoute answer of every unordered PoP pair of one
// frozen RouteEngine — the baseline both online questions are answered
// against: the ensemble scores each sampled outage as a delta from it,
// the streaming session each advisory (paper Section 7.3).
//
// One targeted sweep per pair i < j at alpha_ij (goal-directed iff the
// engine has ALT landmarks), parallel over sources with disjoint rows, so
// every distance and parent chain is bitwise thread-count independent.
// Pairs live in upper-triangle slot order (row i holds j = i+1 .. n-1);
// settled paths are flattened into one uint32 node-id array.
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
  /// Sweeps every pair once; `pool` may be null (serial). The engine must
  /// outlive the table. Counts `core.pair_routes.builds` (stable).
  explicit PairRoutes(const RouteEngine& engine,
                      util::ThreadPool* pool = nullptr);

  [[nodiscard]] const RouteEngine& engine() const { return *engine_; }
  [[nodiscard]] std::size_t pair_count() const { return dist_.size(); }

  /// Slot of the pair (i, j); throws InvalidArgument unless i < j < n.
  [[nodiscard]] std::size_t Slot(std::size_t i, std::size_t j) const;
  /// The pair (i, j) stored at `slot` < pair_count(): Slot's inverse.
  [[nodiscard]] std::pair<std::size_t, std::size_t> Endpoints(
      std::size_t slot) const;

  /// Bit-risk miles of the pair's RiskRoute path; +infinity when the
  /// pair is unreachable.
  [[nodiscard]] double BitRiskMiles(std::size_t slot) const {
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
  std::vector<double> dist_;
  std::vector<std::size_t> offsets_;  // pair_count() + 1
  std::vector<std::uint32_t> nodes_;
};

}  // namespace riskroute::core

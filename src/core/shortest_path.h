// Dijkstra scratch space for RouteEngine sweeps (paper Section 6.4:
// minimizing bit-risk miles reduces to a shortest-path problem on the risk
// graph).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace riskroute::core {

/// A path as a node index sequence (front = source, back = destination).
using Path = std::vector<std::size_t>;

/// Reusable Dijkstra scratch space. One instance per thread; reuse across
/// calls to avoid re-allocating the distance/parent arrays for each of the
/// O(N^2) per-pair searches the ratio analyses run. RouteEngine::Run fills
/// it; the accessors read the last sweep.
class DijkstraWorkspace {
 public:
  [[nodiscard]] double DistanceTo(std::size_t node) const;
  [[nodiscard]] bool Reached(std::size_t node) const;

  /// Reconstructs source->node path from the last Run; throws if the node
  /// was not reached.
  [[nodiscard]] Path PathTo(std::size_t node) const;

  [[nodiscard]] static constexpr double Infinity() {
    return std::numeric_limits<double>::infinity();
  }

 private:
  // RouteEngine drives the scratch arrays from its frozen CSR planes.
  friend class RouteEngine;

  struct QueueEntry {
    double dist;
    std::size_t node;
    bool operator>(const QueueEntry& other) const { return dist > other.dist; }
  };

  std::vector<double> dist_;
  std::vector<std::size_t> parent_;
  std::vector<bool> settled_;
  std::vector<QueueEntry> heap_;  // persistent min-heap buffer
  std::size_t source_ = 0;
};

}  // namespace riskroute::core

#include "core/shortest_path.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace riskroute::core {

double DijkstraWorkspace::DistanceTo(std::size_t node) const {
  if (node >= dist_.size()) {
    throw InvalidArgument(util::Format("DistanceTo: node %zu out of range", node));
  }
  return dist_[node];
}

bool DijkstraWorkspace::Reached(std::size_t node) const {
  return node < dist_.size() && dist_[node] < Infinity();
}

Path DijkstraWorkspace::PathTo(std::size_t node) const {
  if (!Reached(node)) {
    throw InvalidArgument(util::Format("PathTo: node %zu not reached", node));
  }
  Path path;
  std::size_t cursor = node;
  const std::size_t none = parent_.size();
  while (cursor != source_) {
    path.push_back(cursor);
    cursor = parent_[cursor];
    if (cursor == none) throw InternalError("broken parent chain in Dijkstra");
  }
  path.push_back(source_);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace riskroute::core

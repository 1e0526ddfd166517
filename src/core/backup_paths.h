// Risk-aware backup paths (paper Section 3 / 3.1).
//
// The paper positions RiskRoute as the path-computation algorithm inside
// existing repair mechanisms: "RiskRoute fits very nicely into the IP Fast
// Reroute framework [RFC 5714] by offering an algorithm for backup/repair
// path calculation", and for MPLS domains "the fast reroute mechanism can
// be used to establish failover paths for single link or node failures".
// This module implements both:
//
//  * Loop-Free Alternates (RFC 5286 inequality) under a composite
//    risk-aware link weight — the IP-FRR table;
//  * explicit detour paths around a protected link or node — the
//    MPLS-FRR bypass tunnels.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/route_engine.h"
#include "util/thread_pool.h"

namespace riskroute::core {

/// Destination-based routing table under one link weight:
/// next_hop[s][d] is the first hop from s toward d (s itself when s == d;
/// kUnreachable when disconnected).
struct RoutingTable {
  static constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
  /// next_hop[source][destination].
  std::vector<std::vector<std::size_t>> next_hop;
  /// dist[source][destination] under the table's weight.
  std::vector<std::vector<double>> dist;
};

/// All-pairs routing table under weight miles + alpha * score: N
/// single-source sweeps on the frozen CSR, parallel over sources when a
/// pool is given (disjoint table rows; bitwise thread-count independent).
[[nodiscard]] RoutingTable BuildRoutingTable(const RouteEngine& engine,
                                             double alpha,
                                             util::ThreadPool* pool = nullptr,
                                             const EdgeOverlay* overlay = nullptr);

/// One source's loop-free alternates for one destination.
struct LfaEntry {
  std::size_t primary_next_hop = RoutingTable::kUnreachable;
  /// Neighbours n of s satisfying RFC 5286's basic loop-free condition
  /// dist(n, d) < dist(n, s) + dist(s, d); traffic handed to any of them
  /// reaches d without looping back through s.
  std::vector<std::size_t> alternates;
};

/// LFAs for every (source, destination) pair over the engine's frozen
/// links. alternates exclude the primary next hop.
[[nodiscard]] std::vector<std::vector<LfaEntry>> ComputeLfas(
    const RouteEngine& engine, const RoutingTable& table);

/// Fraction of (source, destination, primary-next-hop) triples that have
/// at least one loop-free alternate — the standard IP-FRR coverage metric.
[[nodiscard]] double LfaCoverage(const std::vector<std::vector<LfaEntry>>& lfas);

/// MPLS-style bypass: the best path from `u` to `v` that avoids the
/// protected link (u, v) itself, which fails as an EdgeOverlay removal.
/// nullopt when no detour exists; throws if the link does not exist.
[[nodiscard]] std::optional<Path> LinkBypass(const RouteEngine& engine,
                                             std::size_t u, std::size_t v,
                                             double alpha);

/// MPLS-style node protection: best path from `u` to `dst` avoiding the
/// protected intermediate node `protect` entirely, which fails as an
/// EdgeOverlay disable. nullopt when no detour exists. Throws if protect
/// is u or dst or not a node of the engine.
[[nodiscard]] std::optional<Path> NodeBypass(const RouteEngine& engine,
                                             std::size_t u, std::size_t dst,
                                             std::size_t protect, double alpha);

}  // namespace riskroute::core

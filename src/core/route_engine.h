// RouteEngine: a RiskGraph frozen into immutable CSR form with
// precomputed weight planes, plus pooled workspaces and batched parallel
// sweeps. This is the routing substrate every Section 6/7 evaluation runs
// on: relaxation is index arithmetic plus contiguous array loads — no
// adjacency-list pointer chasing, no per-edge weight callbacks, no
// per-call queue allocation.
//
// Layout. Freezing walks the adjacency lists once and records, per
// directed edge e in row order: the head `EdgeHead(e)` and two weight
// planes — `EdgeMiles(e)` (pure distance) and `EdgeRisk(e)` =
// lambda_h * o_h(head) + lambda_f * o_f(head) (the Equation 1 node term
// for the engine's RiskParams). A relaxation under pair scale alpha then
// costs `miles[e] + alpha * risk[e]`; alpha = 0 is exactly the distance
// metric. CSR rows preserve adjacency-list iteration order, so every
// sweep is bitwise identical to a textbook callback Dijkstra over the
// RiskGraph (same relaxation order, same heap evolution, same distances,
// same parent chains); tests/oracle/reference_routing.h keeps that loop
// as the differential oracle.
//
// Forecast updates. SetForecastRisks/ClearForecastRisks rebuild the node
// scores and the risk plane in place (O(N + E)) — the per-advisory path
// of the disaster case studies — without re-freezing the topology.
//
// Overlays. Every sweep takes an optional EdgeOverlay: removed edges are
// skipped in place, added edges relax after the frozen row in insertion
// order, disabled nodes reject relaxation. See edge_overlay.h for why
// that is bitwise identical to mutate-and-restore.
//
// Determinism. Batched sweeps parallelize over sources with disjoint
// output slices and reduce in fixed index order, so results are bitwise
// independent of thread count (the PR 1 contract).
//
// ALT (A*, Landmarks, Triangle inequality). PrepareLandmarks picks k
// landmarks by farthest-point traversal on the miles plane and runs one
// full distance sweep per landmark. Targeted sweeps then run A* with
// h(v) = max_L |d_miles(L,v) - d_miles(L,t)|, a lower bound on
// d_miles(v,t) by the triangle inequality. Because every relaxation
// weight is miles[e] + alpha * risk[e] >= miles[e] for alpha, risk >= 0,
// the same h is admissible and consistent for *every* pair scale alpha,
// so one landmark table serves the distance metric and all bit-risk
// alphas. A* g-values accumulate through the identical relaxation
// expression as Dijkstra, so settled distances are bitwise equal with
// ALT on or off (argmin parent chains can differ only on exact
// floating-point ties between distinct paths). ALT engages only for
// targeted sweeps and is bypassed when an overlay *adds* edges (added
// edges can shorten miles distances below the frozen-plane bounds);
// removals and disabled nodes only lengthen distances, so the bounds
// stay admissible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/edge_overlay.h"
#include "core/path_metrics.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/shortest_path.h"
#include "geo/geo_point.h"
#include "util/parse_result.h"
#include "util/thread_pool.h"

namespace riskroute::core {

/// Aggregated Eq 5 / Eq 6 ratios over a pair population.
struct RatioReport {
  /// Eq 5: 1 - mean_{pairs} r(p_rr)/r(p_shortest). Positive = RiskRoute
  /// reduces bit-risk miles versus shortest-path routing.
  double risk_reduction_ratio = 0.0;
  /// Eq 6: mean_{pairs} d(p_rr)/d(p_shortest) - 1. Positive = RiskRoute
  /// pays extra mileage.
  double distance_increase_ratio = 0.0;
  std::size_t pair_count = 0;
};

/// Which weight plane a batched sweep relaxes under.
enum class RouteMetric {
  kDistance,  // pure bit-miles; one full Dijkstra per source
  kBitRisk,   // Eq 1 with per-pair alpha_ij; one targeted Dijkstra per pair
};

/// Dense result of a batched sweep: dist(sources[r], targets[c]),
/// +infinity when unreachable.
struct PairMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> dist;  // row-major

  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return dist[r * cols + c];
  }
};

class RouteEngine {
 public:
  /// Freezes `graph` under `params`. The graph is fully copied into CSR
  /// form; later mutations of `graph` do not affect the engine.
  RouteEngine(const RiskGraph& graph, const RiskParams& params);

  [[nodiscard]] std::size_t node_count() const { return node_score_.size(); }
  [[nodiscard]] const RiskParams& params() const { return params_; }

  /// lambda_h * o_h(v) + lambda_f * o_f(v): the impact-unscaled node risk.
  [[nodiscard]] double NodeScore(std::size_t v) const {
    return node_score_[v];
  }
  /// Node score under a hypothetical forecast risk, evaluated with the
  /// exact RebuildRiskPlane expression (same translation unit, same
  /// flags). The streaming layer builds EdgeOverlay node-score override
  /// planes from these values, which is what makes an overlay sweep
  /// bitwise equal to re-freezing the engine at that forecast plane.
  [[nodiscard]] double ScoreWithForecast(std::size_t v,
                                         double forecast_risk) const;
  /// Frozen forecast-risk input at v (zero on a baseline engine).
  [[nodiscard]] double forecast_risk(std::size_t v) const {
    return forecast_[v];
  }
  /// alpha_ij = c_i + c_j.
  [[nodiscard]] double Alpha(std::size_t i, std::size_t j) const {
    return impact_[i] + impact_[j];
  }
  [[nodiscard]] double impact_fraction(std::size_t v) const {
    return impact_[v];
  }
  [[nodiscard]] const geo::GeoPoint& location(std::size_t v) const {
    return location_[v];
  }
  /// Node name copied from the RiskGraph at freeze time (empty when the
  /// graph carried none). Snapshot boots keep names without the graph.
  [[nodiscard]] const std::string& node_name(std::size_t v) const {
    return name_[v];
  }

  /// CSR row bounds and per-edge planes (frozen edges only).
  [[nodiscard]] std::size_t EdgeBegin(std::size_t u) const {
    return row_offsets_[u];
  }
  [[nodiscard]] std::size_t EdgeEnd(std::size_t u) const {
    return row_offsets_[u + 1];
  }
  [[nodiscard]] std::size_t EdgeHead(std::size_t e) const { return col_[e]; }
  [[nodiscard]] double EdgeMiles(std::size_t e) const { return miles_[e]; }
  [[nodiscard]] double EdgeRisk(std::size_t e) const { return risk_[e]; }

  /// True when the frozen graph has the undirected edge (overlay-added
  /// edges are the overlay's business).
  [[nodiscard]] bool HasEdge(std::size_t a, std::size_t b) const;

  /// Replaces/clears every node's forecast risk and rebuilds the risk
  /// plane — the per-advisory update of the disaster case studies.
  /// Landmark tables stay valid: they bound the miles plane, which risk
  /// updates never touch.
  void SetForecastRisks(std::span<const double> risks);
  void ClearForecastRisks();

  // --- ALT landmarks (see the header comment) ---

  /// Selects `count` landmarks by farthest-point traversal on the miles
  /// plane (seeded from node 0's farthest node; ties break to the lowest
  /// node id) and runs one full distance sweep per landmark to fill the
  /// node-major k-per-node distance table. Deterministic; O(k) sweeps.
  /// `count` is clamped to the node count; 0 clears. Once prepared, every
  /// *targeted* sweep upgrades to A* automatically; untargeted sweeps and
  /// sweeps under overlays with added edges keep plain Dijkstra. Settled
  /// distances are bitwise identical either way.
  void PrepareLandmarks(std::size_t count);
  void ClearLandmarks();
  [[nodiscard]] std::size_t landmark_count() const {
    return landmark_ids_.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> landmark_ids() const {
    return landmark_ids_;
  }
  /// d_miles(landmark, v) on the frozen graph; +inf when disconnected.
  [[nodiscard]] double LandmarkMiles(std::size_t landmark,
                                     std::size_t v) const {
    return landmark_miles_[v * landmark_ids_.size() + landmark];
  }

  // --- Engine snapshots (versioned little-endian SoA; see
  // route_engine_snapshot.cpp for the layout) ---

  /// Serializes the frozen engine — CSR arrays, miles plane, node
  /// attributes, locations, names, landmark tables, params + checksum —
  /// in the canonical snapshot byte layout (64-byte-aligned sections,
  /// zero padding). The risk plane and node scores are rebuilt on load
  /// from the stored attributes, bitwise identically.
  void SaveSnapshot(std::ostream& out) const;
  void SaveSnapshotFile(const std::string& path) const;
  [[nodiscard]] std::string SnapshotBytes() const;

  /// Parses a snapshot. Every field is validated (magic, version,
  /// counts, monotone CSR offsets, finite non-negative miles, lat/lon
  /// ranges, checksum, zero padding) and hostile bytes surface as a
  /// ParseDiagnostic — never UB or an exception. An accepted snapshot is
  /// canonical: SaveSnapshot of the loaded engine reproduces the input
  /// bytes exactly.
  [[nodiscard]] static util::ParseResult<RouteEngine> LoadSnapshot(
      std::span<const std::uint8_t> bytes);
  [[nodiscard]] static util::ParseResult<RouteEngine> LoadSnapshotFile(
      const std::string& path);

  /// FNV-1a64 over a snapshot-payload byte run — exposed so tools and
  /// tests can recompute the stored checksum after patching bytes.
  [[nodiscard]] static std::uint64_t SnapshotChecksum(
      std::span<const std::uint8_t> bytes,
      std::uint64_t seed = 14695981039346656037ull);

  // --- Single-source sweeps (DijkstraWorkspace is the scratch type) ---

  /// Dijkstra under weight miles + alpha * risk; stops early once
  /// `target` is settled. Results land in `ws` (DistanceTo / Reached /
  /// PathTo), bitwise identical to a callback Dijkstra over the source
  /// RiskGraph with the Eq 1 edge weight at this alpha.
  void Run(DijkstraWorkspace& ws, std::size_t source, double alpha,
           std::optional<std::size_t> target = std::nullopt,
           const EdgeOverlay* overlay = nullptr) const;

  /// Pure-distance Dijkstra (the miles plane only; bitwise identical to
  /// Run with alpha = 0).
  void RunDistance(DijkstraWorkspace& ws, std::size_t source,
                   std::optional<std::size_t> target = std::nullopt,
                   const EdgeOverlay* overlay = nullptr) const;

  /// Single-shot path under weight miles + alpha * risk; nullopt when
  /// unreachable. Pooled thread-local workspace.
  [[nodiscard]] std::optional<Path> FindPath(
      std::size_t source, std::size_t target, double alpha,
      const EdgeOverlay* overlay = nullptr) const;

  // --- Path metrics (Eq 1 folded hop by hop in path order) ---

  /// Sum over hops of miles + alpha * NodeScore(head); throws
  /// InvalidArgument on an empty path or a missing edge.
  [[nodiscard]] double PathWeight(const Path& path, double alpha,
                                  const EdgeOverlay* overlay = nullptr) const;
  /// Eq 1 on an explicit path; endpoints define alpha.
  [[nodiscard]] double PathBitRiskMiles(
      const Path& path, const EdgeOverlay* overlay = nullptr) const;
  [[nodiscard]] double PathMiles(const Path& path,
                                 const EdgeOverlay* overlay = nullptr) const;
  /// Both shared metrics of a path in one call — the PathMetrics every
  /// result struct carries.
  [[nodiscard]] PathMetrics Measure(const Path& path,
                                    const EdgeOverlay* overlay = nullptr) const {
    return PathMetrics{PathMiles(path, overlay),
                       PathBitRiskMiles(path, overlay)};
  }

  // --- Batched parallel sweeps (bitwise thread-count independent) ---

  /// dist(sources[r], targets[c]) under the metric. kDistance runs one
  /// full sweep per source — unless landmarks are prepared, the overlay
  /// adds no edges, and the target set is sparse (|targets| * 8 <=
  /// node_count()), in which case it runs one goal-directed ALT search
  /// per pair instead (same distances bitwise, far fewer settled nodes).
  /// kBitRisk runs one targeted sweep per pair with
  /// alpha = Alpha(source, target).
  [[nodiscard]] PairMatrix ManyToMany(std::span<const std::size_t> sources,
                                      std::span<const std::size_t> targets,
                                      RouteMetric metric,
                                      util::ThreadPool* pool = nullptr,
                                      const EdgeOverlay* overlay = nullptr) const;

  /// ManyToMany over every node as both source and target.
  [[nodiscard]] PairMatrix AllPairs(RouteMetric metric,
                                    util::ThreadPool* pool = nullptr,
                                    const EdgeOverlay* overlay = nullptr) const;

  // --- Aggregates (fixed pair order and summation order) ---

  /// Eq 5 / Eq 6 ratios over ordered (source, target) pairs
  /// (source == target pairs are skipped; the paper's 1/N^2 normalization
  /// over the diagonal contributes nothing and is dropped). Pairs where
  /// either routing fails to connect are skipped. Supplying a thread pool
  /// parallelizes over sources.
  [[nodiscard]] RatioReport ComputeRatios(
      std::span<const std::size_t> sources,
      std::span<const std::size_t> targets, util::ThreadPool* pool = nullptr,
      const EdgeOverlay* overlay = nullptr) const;

  /// Eq 4 objective: the sum over unordered pairs (j > i) of the minimum
  /// bit-risk miles, bitwise equal to one targeted Dijkstra per pair
  /// summed per source in index order. Without an overlay this runs the
  /// parametric row sweep (see ParametricRowSum) instead of one targeted
  /// Dijkstra per pair, which is several times faster on the Section 7
  /// topologies while producing the identical sum.
  [[nodiscard]] double AggregateMinBitRisk(
      util::ThreadPool* pool = nullptr,
      const EdgeOverlay* overlay = nullptr) const;

  /// Generalized Eq 4 over ordered (source, target) pairs with
  /// source != target — the peering objective, whose pairs run from a
  /// network's PoPs to all regional PoPs (paper Section 6.3).
  [[nodiscard]] double SumMinBitRisk(std::span<const std::size_t> sources,
                                     std::span<const std::size_t> targets,
                                     util::ThreadPool* pool = nullptr,
                                     const EdgeOverlay* overlay = nullptr) const;

 private:
  /// Uninitialized shell for LoadSnapshot.
  RouteEngine() = default;

  template <bool kRisk, bool kOverlay, bool kAlt>
  void RunImpl(DijkstraWorkspace& ws, std::size_t source, double alpha,
               std::size_t target, const EdgeOverlay* overlay) const;

  /// True when a targeted sweep may use the landmark bounds: landmarks
  /// prepared and no overlay-added edges undercutting the miles plane.
  [[nodiscard]] bool AltUsable(const EdgeOverlay* overlay) const {
    return !landmark_ids_.empty() &&
           (overlay == nullptr || overlay->added().empty());
  }

  /// Sum of min bit-risk-miles from source i to every j > i, bitwise
  /// equal to running one targeted Dijkstra per pair. Exploits that the
  /// pair weight is linear in alpha: path cost = miles(P) + alpha *
  /// score(P), so per target the optimum over alpha is a lower envelope
  /// of lines. Full sweeps at the row's extreme alphas bound the
  /// envelope — a line that is minimal at both ends of an alpha interval
  /// is minimal throughout it (two lines cross at most once) — so every
  /// target whose endpoint parent chains coincide needs only an O(path)
  /// re-walk at its own alpha; targets whose chains differ bisect the
  /// interval at the median unresolved alpha, sharing each new sweep
  /// across the row.
  [[nodiscard]] double ParametricRowSum(std::size_t i) const;

  void RebuildRiskPlane();

  RiskParams params_;

  // CSR topology + weight planes.
  std::vector<std::uint32_t> row_offsets_;  // size N + 1
  std::vector<std::uint32_t> col_;          // directed edge heads
  std::vector<double> miles_;               // distance plane
  std::vector<double> risk_;                // node-score plane, risk_[e] = node_score_[col_[e]]

  // Frozen node attributes.
  std::vector<double> impact_;      // c_i
  std::vector<double> historical_;  // o_h
  std::vector<double> forecast_;    // o_f
  std::vector<double> node_score_;  // lambda_h * o_h + lambda_f * o_f
  std::vector<geo::GeoPoint> location_;
  std::vector<std::string> name_;

  // ALT landmark tables (empty until PrepareLandmarks). landmark_miles_
  // is node-major — the k bounds a relaxation reads are contiguous:
  // landmark_miles_[v * k + l] = d_miles(landmark_ids_[l], v).
  std::vector<std::uint32_t> landmark_ids_;
  std::vector<double> landmark_miles_;
};

}  // namespace riskroute::core

// Deterministic Monte Carlo outage ensemble engine.
//
// The paper's provisioning recommendations (Figures 9-11) rank links by
// their effect on the Eq 4 aggregate under the *expected* outage geography
// — a single historical risk field. This engine opens the ensemble view:
// draw N outage scenarios from the hazard catalogs (optionally
// season-conditioned), turn each sampled footprint into an edge/node
// failure set, and score every scenario's bit-risk-mile damage on the
// frozen core::RouteEngine through zero-copy EdgeOverlay sweeps. The
// output is the distribution of damage (mean/variance, P5/P50/P95) plus a
// per-link criticality ranking: which frozen links, when they fail,
// account for the most expected damage — the ensemble analogue of the
// Figure 9 augmentation ranking.
//
// Determinism contract (see DESIGN.md, "Ensemble simulation"):
//
//  * Draw k is a pure function of (seed, k). Scenarios are sampled with a
//    counter-based Philox stream per scenario index (util/philox.h), so
//    the sampled event, footprint jitter and fragility coin flips do not
//    depend on thread schedule, evaluation order, or how many other
//    scenarios exist.
//  * Reductions run in fixed scenario-index order. Workers write each
//    scenario's outcome into its own slot; the ensemble statistics
//    (Welford mean/variance, exact sorted quantiles, per-link
//    criticality sums) are folded serially over the slots. Exported
//    statistics are therefore bitwise identical for any worker count and
//    any scenario-index permutation.
//  * Scenario evaluation reuses one overlay per scenario across every
//    pair sweep; the frozen engine is never copied or mutated.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_overlay.h"
#include "core/pair_routes.h"
#include "core/route_engine.h"
#include "geo/distance.h"
#include "geo/geo_point.h"
#include "hazard/catalog.h"
#include "util/thread_pool.h"

namespace riskroute::sim {

/// Ensemble configuration. The defaults are the reference configuration
/// the golden-replay fixtures pin down.
struct EnsembleOptions {
  /// Number of scenarios (draws 0..scenarios-1). Must be positive.
  std::size_t scenarios = 256;
  /// Philox key; same seed => bitwise-identical report.
  std::uint64_t seed = 2026;
  /// 1-12 restricts draws to events in that month's meteorological
  /// season (the seasonal model's slices); 0 samples the annual archive.
  int month = 0;
  /// Multiplies every hazard type's default damage radius.
  double damage_radius_scale = 1.0;
  /// Footprint centers jitter uniformly within this fraction of the
  /// damage radius around the sampled event (0 replays events exactly).
  double center_jitter = 0.25;
  /// Fringe fragility: nodes between R and fringe_factor * R fail with
  /// probability fringe_fail_scale * (node score / max score) * falloff.
  double fringe_factor = 2.0;
  double fringe_fail_scale = 0.5;
  /// Probability that a frozen link whose span crosses the footprint is
  /// severed even though both endpoints survive (long-haul fiber cuts).
  double link_cut_prob = 0.5;
  /// Number of links reported in the criticality ranking.
  std::size_t criticality_top = 10;
};

/// One sampled outage scenario: the hazard footprint and the failure set
/// it maps to. A pure function of (seed, index) for a fixed engine.
struct Scenario {
  std::uint64_t index = 0;
  hazard::HazardType type = hazard::HazardType::kFemaHurricane;
  geo::GeoPoint center;
  double radius_miles = 0.0;
  /// Calendar month (1-12) of the sampled archive event; the season
  /// stratum key for triaged sampling.
  int event_month = 6;
  /// Failed PoPs, ascending node index.
  std::vector<std::size_t> failed_nodes;
  /// Severed frozen links (ids into the engine's undirected edge table,
  /// ascending) whose endpoints both survived.
  std::vector<std::uint32_t> severed_edges;
};

/// Per-scenario evaluation result.
struct ScenarioOutcome {
  /// Sum over surviving connected pairs (j > i) of scenario bit-risk
  /// distance minus baseline bit-risk distance.
  double delta_bit_risk_miles = 0.0;
  std::uint32_t failed_pops = 0;
  std::uint32_t severed_links = 0;
  /// Unordered baseline-connected pairs with a failed endpoint (excluded
  /// from the delta: no routing can save a dead endpoint).
  std::uint32_t endpoint_pairs = 0;
  /// Unordered pairs alive at both ends but unreachable in-scenario
  /// (stranded; excluded from the delta, reported separately).
  std::uint32_t disconnected_pairs = 0;
  /// Frozen undirected edges out of service this scenario (severed, or
  /// incident to a failed node), ascending edge id.
  std::vector<std::uint32_t> failed_edge_ids;
};

/// One row of the provisioning criticality ranking.
struct LinkCriticality {
  std::size_t a = 0;  // a < b, frozen node indices
  std::size_t b = 0;
  double miles = 0.0;
  /// Scenarios in which the link was out of service.
  std::uint64_t failures = 0;
  /// Sum of those scenarios' delta_bit_risk_miles.
  double delta_sum = 0.0;

  /// Expected per-scenario damage attributable to this link's outages.
  [[nodiscard]] double MeanDelta(std::size_t scenarios) const {
    return scenarios == 0 ? 0.0
                          : delta_sum / static_cast<double>(scenarios);
  }
};

/// Ensemble statistics, reduced in fixed scenario-index order.
struct EnsembleReport {
  std::uint64_t seed = 0;
  std::size_t scenarios = 0;
  /// Unordered pairs connected in the unfailed frozen graph; the delta
  /// universe every scenario is scored against.
  std::size_t baseline_pairs = 0;
  /// Sum of baseline bit-risk distances over those pairs (Eq 4).
  double baseline_bit_risk_miles = 0.0;

  // delta_bit_risk_miles distribution (Welford mean/variance in scenario
  // order; quantiles are exact order statistics of the sorted deltas,
  // linearly interpolated).
  double delta_mean = 0.0;
  double delta_variance = 0.0;  // unbiased (n-1); 0 when n < 2
  double delta_min = 0.0;
  double delta_max = 0.0;
  double delta_p5 = 0.0;
  double delta_p50 = 0.0;
  double delta_p95 = 0.0;

  double mean_failed_pops = 0.0;
  double mean_severed_links = 0.0;
  double mean_endpoint_pairs = 0.0;
  double mean_disconnected_pairs = 0.0;

  /// Top links by delta_sum (descending; ties by ascending edge id).
  std::vector<LinkCriticality> criticality;

  /// Deterministic JSON export (%.17g doubles, fixed key order): bitwise
  /// identical across thread counts and scenario permutations for one
  /// (engine, options) pair. Schema "riskroute.ensemble.v1".
  [[nodiscard]] std::string ToJson() const;
};

/// Batched Monte Carlo ensemble over a frozen RouteEngine.
///
/// Construction freezes the sampling tables (event eligibility, catalog
/// CDF, undirected edge table) and copies the baseline upper-triangle
/// bit-risk distances out of a core::PairRoutes table, turning each
/// pair's stored baseline path into a bitmask of its edge ids; Run /
/// EvaluateScenarios then score scenarios against that baseline with one
/// reused EdgeOverlay per scenario.
///
/// The path masks are the batched path's algorithmic edge: a scenario
/// only removes capacity, so a pair whose recorded baseline path avoids
/// every failed edge keeps that path — same hops, same weight sum — and
/// its overlay distance is bitwise equal to the baseline. Evaluate skips
/// those sweeps outright (delta contribution exactly 0.0); only pairs
/// whose baseline path intersects the failure set pay a targeted
/// Dijkstra. The route engine and catalogs must outlive this object; the
/// pair table need not.
class EnsembleEngine {
 public:
  /// Throws InvalidArgument on a kDistance table, empty catalogs, zero
  /// scenarios, a month outside 0-12, when the season filter leaves no
  /// eligible events, or on out-of-domain sampling knobs (NaN/negative
  /// center_jitter, fringe_factor < 1, fringe_fail_scale or link_cut_prob
  /// outside [0, 1], criticality_top == 0 — NaN never passes).
  EnsembleEngine(const core::PairRoutes& routes,
                 const std::vector<hazard::Catalog>& catalogs,
                 const EnsembleOptions& options = {});

  /// Sweeps a private PairRoutes table over `engine` (on `pool`) and
  /// builds from it.
  EnsembleEngine(const core::RouteEngine& engine,
                 const std::vector<hazard::Catalog>& catalogs,
                 const EnsembleOptions& options = {},
                 util::ThreadPool* pool = nullptr);

  /// The engine keeps a pointer into `catalogs`; a temporary would dangle.
  EnsembleEngine(const core::PairRoutes&, std::vector<hazard::Catalog>&&,
                 const EnsembleOptions& = {}) = delete;
  EnsembleEngine(const core::RouteEngine&, std::vector<hazard::Catalog>&&,
                 const EnsembleOptions& = {}, util::ThreadPool* = nullptr) =
      delete;

  /// Scenario k — a pure function of (seed, k); thread-safe.
  [[nodiscard]] Scenario Draw(std::uint64_t k) const;

  /// The failure set as a zero-copy overlay for engine sweeps.
  [[nodiscard]] core::EdgeOverlay OverlayFor(const Scenario& scenario) const;

  /// Scores one scenario against the baseline; thread-safe.
  [[nodiscard]] ScenarioOutcome Evaluate(const Scenario& scenario) const;

  /// Outcomes for an explicit scenario-id list (sharding across hosts,
  /// permutation tests); out[i] corresponds to ids[i] regardless of
  /// execution order.
  [[nodiscard]] std::vector<ScenarioOutcome> EvaluateScenarios(
      std::span<const std::uint64_t> ids,
      util::ThreadPool* pool = nullptr) const;

  /// The full ensemble: scenarios 0..options.scenarios-1, parallel over
  /// `pool`, reduced in fixed scenario-index order.
  [[nodiscard]] EnsembleReport Run(util::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const EnsembleOptions& options() const { return options_; }
  [[nodiscard]] double baseline_bit_risk_miles() const { return baseline_; }
  [[nodiscard]] std::size_t baseline_pairs() const { return baseline_pairs_; }
  /// The frozen routing engine the ensemble scores against.
  [[nodiscard]] const core::RouteEngine& route_engine() const {
    return *engine_;
  }

  /// The engine's undirected edge table (a < b, ascending (a, b)); the
  /// id space of Scenario::severed_edges and criticality rows.
  struct UndirectedEdge {
    std::size_t a = 0;
    std::size_t b = 0;
    double miles = 0.0;
  };
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const UndirectedEdge& edge(std::size_t id) const {
    return edges_[id];
  }

  /// How many baseline-connected pairs route over each frozen edge
  /// (indexed by undirected edge id): the static criticality rank the
  /// triage surrogate uses as a feature. Computed once at construction
  /// from the stored baseline paths.
  [[nodiscard]] std::span<const std::uint32_t> baseline_edge_usage() const {
    return baseline_edge_usage_;
  }
  /// Edge-id range [begin, end) of undirected edges whose lower endpoint
  /// is u; edges with u as the higher endpoint live in lower rows.
  [[nodiscard]] std::uint32_t EdgeRowBegin(std::size_t u) const {
    return edge_row_[u];
  }
  [[nodiscard]] std::uint32_t EdgeRowEnd(std::size_t u) const {
    return edge_row_[u + 1];
  }

  /// Per-slice (catalog index, eligible event count) in draw order: the
  /// exact integer layout behind the event pick. Exposed so boundary
  /// draws (picks landing on a prefix-sum edge) can be regression-tested
  /// against the slice they must bucket into.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>>
  SliceLayout() const;

 private:
  /// Eligible (catalog, event) sampling tables under the season filter.
  struct CatalogSlice {
    std::size_t catalog = 0;
    std::vector<std::size_t> events;  // indices into the catalog
  };

  const core::RouteEngine* engine_;
  const std::vector<hazard::Catalog>* catalogs_;
  EnsembleOptions options_;

  std::vector<CatalogSlice> slices_;
  /// Inclusive prefix sums of eligible event counts, kept in exact
  /// integer arithmetic: a double CDF starts mis-bucketing boundary
  /// draws once cumulative counts pass 2^53 (continental archives), so
  /// the slice pick is an integer NextIndex against these sums.
  std::vector<std::uint64_t> slice_prefix_;
  std::uint64_t slice_total_ = 0;

  std::vector<UndirectedEdge> edges_;
  /// First undirected edge id with .a == u (size N + 1): maps a failed
  /// node to its incident edge-id range in O(degree).
  std::vector<std::uint32_t> edge_row_;

  double max_node_score_ = 0.0;
  /// Unit direction vectors of the PoP locations and of three sample
  /// points along each frozen link span (t = 0.25/0.5/0.75), precomputed
  /// so Draw's footprint and link-cut scans are dot-product compares
  /// against the scenario center instead of per-draw haversines — the
  /// difference between ~29us and ~3us per draw at continental archive
  /// scale (a million draws is seconds, not minutes).
  std::vector<geo::UnitVec3> node_units_;
  std::vector<std::array<geo::UnitVec3, 3>> edge_span_units_;
  /// Baseline bit-risk distance per core::PairRoutes slot; +inf marks
  /// baseline-disconnected pairs (excluded everywhere).
  std::vector<double> baseline_dist_;
  /// Per-pair bitmask (mask_words_ words each, same slot layout as
  /// baseline_dist_) of the undirected edge ids on the pair's baseline
  /// shortest path. A scenario whose failed-edge mask is disjoint leaves
  /// the pair's distance bitwise unchanged.
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> pair_path_mask_;
  std::vector<std::uint32_t> baseline_edge_usage_;
  double baseline_ = 0.0;
  std::size_t baseline_pairs_ = 0;

  /// Id of the frozen undirected edge {u, v}; the edge must exist.
  [[nodiscard]] std::uint32_t EdgeIdFor(std::size_t u, std::size_t v) const;
};

/// The single fixed-order reduction path behind EnsembleEngine::Run and
/// sim::TriagedEnsemble. Add() must be called in ascending scenario-id
/// order; `weight` folds the outcome in as if it stood for `weight`
/// scenarios of the universe (the Horvitz-Thompson 1/pi reweighting of
/// the triaged sampler). With every weight exactly 1.0 the arithmetic is
/// bitwise identical to the historical unweighted reduction: weighted
/// increments are computed as (w * d) / W so the w == 1.0 multiplications
/// are exact, and the weighted quantile interpolation degenerates to the
/// stats::Quantile order-statistic formula when cumulative weights are
/// the integers 1..n.
class EnsembleReducer {
 public:
  /// `engine` supplies the frozen edge table for the criticality rows.
  EnsembleReducer(const EnsembleEngine& engine, std::size_t criticality_top);

  /// Folds one evaluated outcome in with Horvitz-Thompson weight
  /// `weight` (> 0). Call in ascending scenario-id order.
  void Add(const ScenarioOutcome& outcome, double weight);

  /// Finalizes the report. `scenarios` is the universe size the report
  /// describes (for the triaged path this exceeds the Add() count).
  [[nodiscard]] EnsembleReport Finish(std::uint64_t seed,
                                      std::size_t scenarios) &&;

  [[nodiscard]] double weight_sum() const { return weight_sum_; }

 private:
  const EnsembleEngine* engine_;
  std::size_t top_;
  double weight_sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_;
  double max_;
  double sum_failed_pops_ = 0.0;
  double sum_severed_links_ = 0.0;
  double sum_endpoint_pairs_ = 0.0;
  double sum_disconnected_pairs_ = 0.0;
  std::vector<LinkCriticality> links_;
  /// (delta, weight) per Add, for the weighted quantiles.
  std::vector<std::pair<double, double>> deltas_;
};

}  // namespace riskroute::sim

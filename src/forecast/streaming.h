// Streaming forecast mode: incremental advisory re-route (paper
// Section 7.3, run online).
//
// The paper's headline scenario is inherently streaming — a new NHC
// advisory arrives every six hours and routes must shift ahead of
// landfall — yet a naive implementation rebuilds the whole study per
// advisory. StreamingReroute instead reads ONE frozen baseline
// RouteEngine (forecast plane all-zero) and its core::PairRoutes table of
// baseline answers for the life of the session (the table may be shared
// by every session and ensemble over that engine) and, per advisory:
//
//  1. recomputes the forecast-risk raster only inside the advisory's
//     wind footprint (a kd-tree radius query over the PoP set, then an
//     exact ForecastRiskField::RiskAt per candidate);
//  2. lowers the footprint onto link weights as an EdgeOverlay
//     node-score override: baseline scores outside the footprint,
//     RouteEngine::ScoreWithForecast values inside it, so an overlay
//     sweep is bitwise identical to re-freezing the engine at that
//     advisory (same weights, same heap evolution — no refreeze);
//  3. re-routes only the pairs whose current answer can change: a pair
//     whose settled baseline path avoids every footprint node keeps its
//     baseline answer exactly (forecast deltas are non-negative, so
//     they can only raise the cost of alternatives while leaving the
//     baseline path's cost untouched) — those pairs are cache hits. The
//     table's link index names the others: a node's pairs are the
//     union of its incident links' lists;
//  4. emits a structured RouteDiff: which pairs moved, per-pair
//     bit-risk-mile deltas, and a source tag ("live" after a parsed
//     advisory, "static-fallback" after reverting to the baseline
//     plane, mirroring the live-feed -> resolve-risk -> static-fallback
//     pattern of the reference mitigation pipeline).
//
// Correctness contract: every incremental answer (bit-risk-miles and
// path digest per pair) is bitwise identical to a from-scratch rebuild
// of the engine at that advisory, for any thread count. Parent chains
// carry the engine's standing caveat: they can differ from a rebuilt
// sweep only on exact floating-point ties.
//
// Sequencing: advisory numbers must be strictly increasing within a
// session. Out-of-order or duplicate numbers are rejected with a
// ParseResult diagnostic and leave the session state untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/edge_overlay.h"
#include "core/pair_routes.h"
#include "core/route_engine.h"
#include "forecast/advisory.h"
#include "forecast/forecast_risk.h"
#include "spatial/kd_tree.h"
#include "util/parse_result.h"

namespace riskroute::util {
class ThreadPool;
}  // namespace riskroute::util

namespace riskroute::forecast {

/// Session knobs. The pool is borrowed (may be nullptr for serial);
/// results are bitwise identical for any thread count.
struct StreamOptions {
  ForecastRiskParams risk;
  std::size_t top_moves = 3;  // moves rendered per diff body
  util::ThreadPool* pool = nullptr;
};

/// One pair whose answer changed between consecutive session states.
/// Digests are FNV-1a 64 over the path's node ids (0 = unreachable).
struct PairMove {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double before_bit_risk_miles = 0.0;
  double after_bit_risk_miles = 0.0;
  std::uint64_t before_digest = 0;
  std::uint64_t after_digest = 0;

  [[nodiscard]] double Delta() const {
    return after_bit_risk_miles - before_bit_risk_miles;
  }
  [[nodiscard]] bool operator==(const PairMove&) const = default;
};

/// Structured routing diff between two consecutive session states.
struct RouteDiff {
  int advisory_number = 0;     // 0 for a static-fallback transition
  std::string advisory_time;   // "-" when not tied to an advisory
  std::string source = "live"; // "live" | "static-fallback"
  std::size_t pops_in_scope = 0;
  std::size_t pairs_tracked = 0;
  std::size_t pairs_recomputed = 0;
  std::size_t pairs_moved = 0;
  double total_abs_delta = 0.0;          // sum of |Delta()| over moves
  std::vector<PairMove> moves;           // ascending (src, dst)

  [[nodiscard]] bool empty() const { return moves.empty(); }
};

/// Current answer for one tracked pair (ascending (src, dst) order in
/// StreamingReroute::Answers). Unreachable pairs carry +inf / digest 0.
struct PairAnswer {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double bit_risk_miles = 0.0;
  std::uint64_t digest = 0;

  [[nodiscard]] bool operator==(const PairAnswer&) const = default;
};

/// Composes two consecutive diffs (state A->B, then B->C) into the
/// endpoint diff A->C: per pair, `before` comes from the first diff that
/// mentions it and `after` from the last; pairs whose endpoints agree
/// drop out. Metadata (advisory number/time, source, scope) follows the
/// second diff; pairs_recomputed accumulates.
[[nodiscard]] RouteDiff Compose(const RouteDiff& first,
                                const RouteDiff& second);

/// Renders the deterministic per-advisory text block served by the API
/// and printed by `riskroute stream`: one header line, then the top
/// `top_moves` moves by |delta| (ties broken by ascending pair).
[[nodiscard]] std::string RenderRouteDiff(const RouteDiff& diff,
                                          const core::RouteEngine& engine,
                                          std::size_t top_moves);

/// FNV-1a 64 digest over a path's node ids (empty path -> 0).
[[nodiscard]] std::uint64_t PathDigest(const core::Path& path);

/// A rolling re-route session over one frozen baseline engine.
class StreamingReroute {
 public:
  /// Starts from the baseline answers in `routes`, a kBitRisk table.
  /// Its engine must be a baseline freeze: its forecast plane all-zero
  /// (throws InvalidArgument otherwise) — the session owns the forecast
  /// dimension from here on. Landmarks may be prepared; sweeps then run
  /// goal-directed. Nothing here costs per pair: until an advisory
  /// diverges a pair, its answer is read from the table.
  explicit StreamingReroute(std::shared_ptr<const core::PairRoutes> routes,
                            StreamOptions options = {});

  /// Sweeps a private PairRoutes table over `engine` (on options.pool)
  /// and starts from it.
  explicit StreamingReroute(const core::RouteEngine& engine,
                            StreamOptions options = {});

  /// Parses one bulletin and ingests it. Parser diagnostics pass
  /// through verbatim; the session state is untouched on failure.
  [[nodiscard]] util::ParseResult<RouteDiff> IngestText(
      std::string_view bulletin);

  /// Ingests one parsed advisory: recomputes the footprint raster,
  /// re-routes affected pairs against the overlay, and returns the diff
  /// (source "live"). Rejects non-increasing advisory numbers with a
  /// kBadValue diagnostic, leaving the state untouched.
  [[nodiscard]] util::ParseResult<RouteDiff> Ingest(const Advisory& advisory);

  /// Reverts every answer to the static baseline plane and returns the
  /// transition diff tagged "static-fallback". The advisory sequence
  /// position is kept, so the live feed can resume where it left off.
  RouteDiff FallbackToStatic();

  [[nodiscard]] const core::RouteEngine& engine() const {
    return routes_->engine();
  }
  [[nodiscard]] std::size_t pair_count() const {
    return routes_->pair_count();
  }
  [[nodiscard]] std::size_t advisory_count() const { return advisory_count_; }
  [[nodiscard]] int last_advisory_number() const { return last_number_; }
  /// Overlay applied by the most recent ingest (empty after fallback or
  /// an empty-footprint advisory).
  [[nodiscard]] const core::EdgeOverlay& overlay() const { return overlay_; }

  /// Current answers for all tracked pairs, ascending (src, dst).
  [[nodiscard]] std::vector<PairAnswer> Answers() const;
  /// Current settled path for one pair (src < dst; empty if unreachable).
  [[nodiscard]] core::Path CurrentPath(std::size_t src, std::size_t dst) const;
  [[nodiscard]] double CurrentBitRiskMiles(std::size_t src,
                                           std::size_t dst) const;

  /// Renders a diff with this session's engine and top-moves setting.
  [[nodiscard]] std::string Render(const RouteDiff& diff) const;

 private:
  /// Re-routes against a footprint (node ids with forecast risk > 0 and
  /// their o_f values); an empty scope reverts to the baseline plane.
  RouteDiff ApplyScope(std::span<const std::size_t> scope,
                       std::span<const double> forecast);

  /// A pair whose current answer differs from the table's.
  struct Diverged {
    std::uint32_t slot = 0;
    double bit_risk_miles = 0.0;       // +inf when unreachable
    std::vector<std::uint32_t> path;   // empty when unreachable
  };
  /// The diverged entry for `slot`, or null when the table answers it.
  [[nodiscard]] const Diverged* FindDiverged(std::size_t slot) const;

  std::shared_ptr<const core::PairRoutes> routes_;
  StreamOptions options_;
  spatial::KdTree index_;
  std::vector<Diverged> diverged_;  // ascending slot

  core::EdgeOverlay overlay_;
  int last_number_ = 0;
  std::size_t advisory_count_ = 0;
};

}  // namespace riskroute::forecast

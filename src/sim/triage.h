// Surrogate-triaged million-scenario ensembles.
//
// EnsembleEngine scores every scenario exactly, so ensemble cost grows
// linearly in N even though most draws barely graze the network. This
// layer makes N = 10^6 routine by spending exact evaluations only where
// they matter, without giving up either determinism or unbiasedness:
//
//  1. Features + surrogate. Every scenario id gets a deterministic
//     feature row straight from Draw(k) — footprint radius, failed-PoP
//     count and their Eq 1 score mass, the count and baseline-usage rank
//     sum of frozen links inside the footprint, and the event's season.
//     A hand-rolled ridge regression (standardized features, normal
//     equations, no external ML deps) is fit on an exact pilot batch —
//     the first `pilot` non-empty scenario ids in ascending order — and
//     predicts every other scenario's bit-risk-mile delta.
//  2. Lanes. Each id lands in exactly one lane, decided in priority
//     order: `empty` (footprint missed the network; the outcome is an
//     exact zero with no engine work), `pilot`, `audit` (id divisible by
//     audit_stride: a deterministic exact subsample, chosen blind to the
//     surrogate, whose surrogate-vs-exact errors are the calibration
//     report), `flagged` (predicted delta within uncertainty_margin
//     pilot-residual-sds of the pilot impact quantile — high-impact or
//     too-close-to-call ids are always evaluated exactly), or `sampled`.
//  3. Importance sampling. Sampled ids are stratified by (season,
//     footprint-size bucket); stratum h keeps each id independently with
//     probability pi_h proportional to the stratum's mean predicted
//     impact (floored at min_rate, capped at 1). The keep/drop coin for
//     id k is PhiloxRng(seed ^ salt, k) — decorrelated from Draw's
//     stream and a pure function of (seed, k). Kept ids are evaluated
//     exactly and folded into the shared fixed-order EnsembleReducer
//     with Horvitz-Thompson weight 1/pi_h; all pi = 1 lanes carry weight
//     1. Surrogate predictions steer *where* exact work goes but never
//     enter the estimate, so the reduced report is an unbiased
//     (Hajek-normalized) estimate of the plain-MC report over the same
//     universe.
//
// Determinism: features, lane assignment, strata, and rates are pure
// functions of (engine, options, universe set); parallel stages write
// per-slot; every reduction runs serially in ascending scenario-id
// order. The report is bitwise identical across worker counts and
// universe-id permutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/ensemble.h"
#include "util/thread_pool.h"

namespace riskroute::sim {

/// Triage knobs. Defaults target ~10-20% exact work on the reference
/// corpora while keeping the audit lane dense enough to calibrate.
struct TriageOptions {
  /// Exact pilot batch: the first `pilot` non-empty scenario ids (or
  /// every non-empty id if fewer exist) train the surrogate. Must be
  /// positive.
  std::size_t pilot = 96;
  /// Every id divisible by audit_stride is evaluated exactly regardless
  /// of the surrogate (the calibration lane). Must be positive.
  std::size_t audit_stride = 64;
  /// Target keep probability for an average-impact sampled stratum, in
  /// (0, 1].
  double base_rate = 0.05;
  /// Floor on any stratum's keep probability, in (0, base_rate].
  double min_rate = 0.01;
  /// Pilot |delta| quantile that defines the high-impact threshold, in
  /// (0, 1).
  double impact_quantile = 0.90;
  /// Ids whose prediction is within `uncertainty_margin` pilot residual
  /// standard deviations below the threshold are flagged exact too
  /// (high-uncertainty lane). Must be finite and >= 0.
  double uncertainty_margin = 1.0;
  /// Ridge penalty on the standardized normal equations; >= 0, finite.
  double ridge_lambda = 1e-3;
};

/// Surrogate-vs-exact error statistics over the audit lane, which is
/// chosen blind to the surrogate (id % audit_stride == 0) and therefore
/// measures generalization, not training fit.
struct TriageCalibration {
  std::size_t audits = 0;  ///< audit-lane comparisons (0 on tiny runs)
  double mean_abs_error = 0.0;
  double rmse = 0.0;
  double max_abs_error = 0.0;
  /// Mean signed (predicted - exact); positive = surrogate overshoots.
  double bias = 0.0;
  /// Residual standard deviation of the pilot fit (the uncertainty
  /// band's unit).
  double pilot_residual_sd = 0.0;
  /// In-sample R^2 of the pilot fit; <= 1, can be negative on a
  /// degenerate pilot.
  double pilot_r2 = 0.0;
};

/// A triaged run: the HT-weighted ensemble estimate plus the triage
/// accounting needed to audit it.
struct TriagedReport {
  /// The Horvitz-Thompson-weighted ensemble statistics over the full
  /// universe (estimate.scenarios == universe). delta_min/delta_max
  /// cover evaluated scenarios only — skipped low-impact ids contribute
  /// through their stratum-mates' weights, not their own extremes.
  EnsembleReport estimate;

  std::size_t universe = 0;         ///< scenario ids in the run
  std::size_t empty_scenarios = 0;  ///< exact zeros, no engine work
  std::size_t pilot_exact = 0;
  std::size_t audit_exact = 0;
  std::size_t flagged_exact = 0;
  std::size_t sampled_exact = 0;   ///< kept by the importance sampler
  std::size_t skipped = 0;         ///< surrogate-only, weight carried by peers
  std::size_t strata = 0;          ///< non-empty sampling strata
  /// Engine evaluations actually paid (pilot + audit + flagged +
  /// sampled; empties are free).
  std::size_t exact_evaluations = 0;
  /// exact_evaluations / universe.
  double exact_fraction = 0.0;
  /// Realized sum of HT weights (the Hajek normalizer; E[...] = universe).
  double weight_sum = 0.0;

  TriageCalibration calibration;

  /// Deterministic JSON (%.17g doubles, fixed key order), schema
  /// "riskroute.ensemble.triage.v1". Bitwise identical across thread
  /// counts and universe permutations for one (engine, options) pair.
  [[nodiscard]] std::string ToJson() const;
};

/// Triaged ensemble over a frozen EnsembleEngine. The engine must
/// outlive this object; nothing in it is mutated.
class TriagedEnsemble {
 public:
  /// Validates `options` (InvalidArgument on out-of-domain knobs).
  explicit TriagedEnsemble(const EnsembleEngine& engine,
                           const TriageOptions& options = {});

  /// The deterministic per-scenario feature row (a pure function of the
  /// engine's (seed, k)); exposed for tests.
  struct Features {
    double radius_miles = 0.0;
    double failed_pops = 0.0;
    double score_mass = 0.0;     ///< sum of Eq 1 node scores, failed PoPs
    double failed_links = 0.0;   ///< frozen links severed or endpoint-dead
    double usage_rank_sum = 0.0; ///< baseline pairs routed over each, summed
    double season = 0.0;         ///< 0..3 (winter..fall) of event_month
    bool empty = false;          ///< no failed nodes, no severed edges
  };
  [[nodiscard]] Features FeaturesFor(const Scenario& scenario) const;

  /// The triaged run over ids 0..engine.options().scenarios-1.
  [[nodiscard]] TriagedReport Run(util::ThreadPool* pool = nullptr) const;

  /// Same, over an explicit universe (sharding, permutation tests). The
  /// ids are reduced in ascending order whatever order they arrive in;
  /// duplicates are rejected. `ids` must be non-empty.
  [[nodiscard]] TriagedReport Run(std::span<const std::uint64_t> ids,
                                  util::ThreadPool* pool) const;

  [[nodiscard]] const TriageOptions& options() const { return options_; }

 private:
  const EnsembleEngine* engine_;
  TriageOptions options_;
};

}  // namespace riskroute::sim

#include "sim/triage.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "hazard/seasonal.h"
#include "obs/metrics.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/philox.h"

namespace riskroute::sim {
namespace {

constexpr std::size_t kFeatureDim = 6;
/// XORed into the engine seed for the keep/drop coins so the selection
/// stream never replays the footprint stream of Draw(k).
constexpr std::uint64_t kSelectSalt = 0x9E3779B97F4A7C15ull;
/// Strata with at most this many sampled-lane members are kept whole:
/// the exact work is negligible and the variance of a sparse stratum is
/// not.
constexpr std::size_t kWholeStratumLimit = 32;

/// Triage metrics, resolved once per process. Counters are pure
/// functions of (engine, options, universe), so they land in the
/// bitwise-stable export section; only the wall-clock timing is
/// volatile.
struct TriageMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& universe = reg.GetCounter("ensemble.triage.universe");
  obs::Counter& empty_scenarios =
      reg.GetCounter("ensemble.triage.empty_scenarios");
  obs::Counter& pilot_exact = reg.GetCounter("ensemble.triage.pilot_exact");
  obs::Counter& audit_exact = reg.GetCounter("ensemble.triage.audit_exact");
  obs::Counter& flagged_exact =
      reg.GetCounter("ensemble.triage.flagged_exact");
  obs::Counter& sampled_exact =
      reg.GetCounter("ensemble.triage.sampled_exact");
  obs::Counter& skipped = reg.GetCounter("ensemble.triage.skipped");
  obs::Counter& exact_evaluations =
      reg.GetCounter("ensemble.triage.exact_evaluations");
  obs::Histogram& run_ns = reg.GetTiming("ensemble.triage.run_ns");

  static TriageMetrics& Get() {
    static TriageMetrics metrics;
    return metrics;
  }
};

/// Shortest-double round trip: every finite double survives %.17g.
void AppendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Footprint-size bucket of the stratification: empty footprints never
/// reach the sampler, so buckets split the non-empty range.
std::size_t SizeBucket(std::size_t failed_pops) {
  if (failed_pops <= 2) return 0;
  if (failed_pops <= 8) return 1;
  if (failed_pops <= 32) return 2;
  return 3;
}

/// Ridge regression on standardized features with a centered target:
/// solves (Z^T Z + lambda * p * I) beta = Z^T (y - ybar) by Gaussian
/// elimination with partial pivoting (6x6, deterministic). Prediction is
/// ybar + beta . z.
struct Surrogate {
  std::array<double, kFeatureDim> mu{};
  std::array<double, kFeatureDim> sd{};
  std::array<double, kFeatureDim> beta{};
  double intercept = 0.0;
  double residual_sd = 0.0;
  double r2 = 0.0;

  [[nodiscard]] double Predict(
      const TriagedEnsemble::Features& f) const {
    const std::array<double, kFeatureDim> raw = {
        f.radius_miles, f.failed_pops,    f.score_mass,
        f.failed_links, f.usage_rank_sum, f.season};
    double y = intercept;
    for (std::size_t j = 0; j < kFeatureDim; ++j) {
      if (sd[j] > 0.0) y += beta[j] * ((raw[j] - mu[j]) / sd[j]);
    }
    return y;
  }
};

Surrogate FitSurrogate(const std::vector<TriagedEnsemble::Features>& rows,
                       const std::vector<double>& targets, double lambda) {
  Surrogate fit;
  const std::size_t p = rows.size();
  if (p == 0) return fit;
  const auto raw = [&](std::size_t i, std::size_t j) {
    const TriagedEnsemble::Features& f = rows[i];
    const double values[kFeatureDim] = {f.radius_miles, f.failed_pops,
                                        f.score_mass,   f.failed_links,
                                        f.usage_rank_sum, f.season};
    return values[j];
  };
  for (std::size_t j = 0; j < kFeatureDim; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) sum += raw(i, j);
    fit.mu[j] = sum / static_cast<double>(p);
    double ss = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double d = raw(i, j) - fit.mu[j];
      ss += d * d;
    }
    fit.sd[j] = std::sqrt(ss / static_cast<double>(p));
  }
  double ybar = 0.0;
  for (const double y : targets) ybar += y;
  ybar /= static_cast<double>(p);
  fit.intercept = ybar;

  const auto z = [&](std::size_t i, std::size_t j) {
    return fit.sd[j] > 0.0 ? (raw(i, j) - fit.mu[j]) / fit.sd[j] : 0.0;
  };
  // Normal equations, accumulated in fixed pilot order.
  double a[kFeatureDim][kFeatureDim] = {};
  double b[kFeatureDim] = {};
  for (std::size_t i = 0; i < p; ++i) {
    const double yc = targets[i] - ybar;
    for (std::size_t j = 0; j < kFeatureDim; ++j) {
      const double zj = z(i, j);
      b[j] += zj * yc;
      for (std::size_t k = j; k < kFeatureDim; ++k) a[j][k] += zj * z(i, k);
    }
  }
  const double penalty =
      std::max(lambda, 1e-12) * static_cast<double>(p);
  for (std::size_t j = 0; j < kFeatureDim; ++j) {
    for (std::size_t k = 0; k < j; ++k) a[j][k] = a[k][j];
    a[j][j] += penalty;
  }
  // Gaussian elimination with partial pivoting.
  std::array<std::size_t, kFeatureDim> perm{};
  for (std::size_t j = 0; j < kFeatureDim; ++j) perm[j] = j;
  for (std::size_t col = 0; col < kFeatureDim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kFeatureDim; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (pivot != col) {
      for (std::size_t k = 0; k < kFeatureDim; ++k) {
        std::swap(a[col][k], a[pivot][k]);
      }
      std::swap(b[col], b[pivot]);
    }
    if (a[col][col] == 0.0) continue;  // ridge makes this unreachable
    for (std::size_t r = col + 1; r < kFeatureDim; ++r) {
      const double factor = a[r][col] / a[col][col];
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < kFeatureDim; ++k) {
        a[r][k] -= factor * a[col][k];
      }
      b[r] -= factor * b[col];
    }
  }
  for (std::size_t col = kFeatureDim; col-- > 0;) {
    double acc = b[col];
    for (std::size_t k = col + 1; k < kFeatureDim; ++k) {
      acc -= a[col][k] * fit.beta[k];
    }
    fit.beta[col] = a[col][col] != 0.0 ? acc / a[col][col] : 0.0;
  }

  double sse = 0.0;
  double sst = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double pred = fit.Predict(rows[i]);
    const double err = targets[i] - pred;
    sse += err * err;
    const double dc = targets[i] - ybar;
    sst += dc * dc;
  }
  const std::size_t dof = p > kFeatureDim + 1 ? p - kFeatureDim - 1 : 1;
  fit.residual_sd = std::sqrt(sse / static_cast<double>(dof));
  fit.r2 = sst > 0.0 ? 1.0 - sse / sst : 0.0;
  return fit;
}

enum class Lane : std::uint8_t {
  kEmpty,
  kPilot,
  kAudit,
  kFlagged,
  kSampled,
  kSkipped,
};

}  // namespace

TriagedEnsemble::TriagedEnsemble(const EnsembleEngine& engine,
                                 const TriageOptions& options)
    : engine_(&engine), options_(options) {
  if (options_.pilot == 0) {
    throw InvalidArgument("TriagedEnsemble: pilot must be positive");
  }
  if (options_.audit_stride == 0) {
    throw InvalidArgument("TriagedEnsemble: audit_stride must be positive");
  }
  if (!(options_.base_rate > 0.0) || !(options_.base_rate <= 1.0)) {
    throw InvalidArgument("TriagedEnsemble: base_rate must be in (0, 1]");
  }
  if (!(options_.min_rate > 0.0) ||
      !(options_.min_rate <= options_.base_rate)) {
    throw InvalidArgument(
        "TriagedEnsemble: min_rate must be in (0, base_rate]");
  }
  if (!(options_.impact_quantile > 0.0) ||
      !(options_.impact_quantile < 1.0)) {
    throw InvalidArgument(
        "TriagedEnsemble: impact_quantile must be in (0, 1)");
  }
  if (!(options_.uncertainty_margin >= 0.0) ||
      options_.uncertainty_margin > std::numeric_limits<double>::max()) {
    throw InvalidArgument(
        "TriagedEnsemble: uncertainty_margin must be finite and >= 0");
  }
  if (!(options_.ridge_lambda >= 0.0) ||
      options_.ridge_lambda > std::numeric_limits<double>::max()) {
    throw InvalidArgument(
        "TriagedEnsemble: ridge_lambda must be finite and >= 0");
  }
}

TriagedEnsemble::Features TriagedEnsemble::FeaturesFor(
    const Scenario& scenario) const {
  Features f;
  f.radius_miles = scenario.radius_miles;
  f.failed_pops = static_cast<double>(scenario.failed_nodes.size());
  f.season = static_cast<double>(
      static_cast<int>(hazard::SeasonOfMonth(scenario.event_month)));
  f.empty =
      scenario.failed_nodes.empty() && scenario.severed_edges.empty();
  if (f.empty) return f;

  const core::RouteEngine& route = engine_->route_engine();
  for (const std::size_t v : scenario.failed_nodes) {
    f.score_mass += route.NodeScore(v);
  }
  // The frozen links this footprint takes out (severed spans plus edges
  // incident to a failed node), deduplicated exactly as Evaluate does.
  std::vector<std::uint32_t> failed_edges;
  for (const std::size_t v : scenario.failed_nodes) {
    for (std::uint32_t id = engine_->EdgeRowBegin(v);
         id < engine_->EdgeRowEnd(v); ++id) {
      failed_edges.push_back(id);
    }
    for (std::uint32_t id = 0; id < engine_->EdgeRowBegin(v); ++id) {
      if (engine_->edge(id).b == v) failed_edges.push_back(id);
    }
  }
  failed_edges.insert(failed_edges.end(), scenario.severed_edges.begin(),
                      scenario.severed_edges.end());
  std::sort(failed_edges.begin(), failed_edges.end());
  failed_edges.erase(std::unique(failed_edges.begin(), failed_edges.end()),
                     failed_edges.end());
  const std::span<const std::uint32_t> usage =
      engine_->baseline_edge_usage();
  f.failed_links = static_cast<double>(failed_edges.size());
  for (const std::uint32_t id : failed_edges) {
    f.usage_rank_sum += static_cast<double>(usage[id]);
  }
  return f;
}

TriagedReport TriagedEnsemble::Run(util::ThreadPool* pool) const {
  std::vector<std::uint64_t> ids(engine_->options().scenarios);
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = k;
  return Run(ids, pool);
}

TriagedReport TriagedEnsemble::Run(std::span<const std::uint64_t> ids,
                                   util::ThreadPool* pool) const {
  TriageMetrics& metrics = TriageMetrics::Get();
  obs::ScopedTimer timer(metrics.run_ns);
  if (ids.empty()) {
    throw InvalidArgument("TriagedEnsemble: empty universe");
  }

  // The universe in ascending id order: lane assignment, sampling and
  // the reduction are defined over the sorted set, so any permutation of
  // `ids` produces the same report bitwise.
  std::vector<std::uint64_t> universe(ids.begin(), ids.end());
  std::sort(universe.begin(), universe.end());
  if (std::adjacent_find(universe.begin(), universe.end()) !=
      universe.end()) {
    throw InvalidArgument("TriagedEnsemble: duplicate scenario id");
  }
  const std::size_t n = universe.size();

  // Stage 1 — deterministic features for every id, per-slot parallel.
  std::vector<Features> features(n);
  util::ParallelFor(pool, n, [&](std::size_t s) {
    features[s] = FeaturesFor(engine_->Draw(universe[s]));
  });

  // Stage 2 — pilot lane: the first `pilot` non-empty ids, evaluated
  // exactly and used to fit the surrogate.
  std::vector<std::size_t> pilot_slots;
  for (std::size_t s = 0; s < n && pilot_slots.size() < options_.pilot;
       ++s) {
    if (!features[s].empty) pilot_slots.push_back(s);
  }
  std::vector<std::uint64_t> pilot_ids;
  pilot_ids.reserve(pilot_slots.size());
  for (const std::size_t s : pilot_slots) pilot_ids.push_back(universe[s]);
  const std::vector<ScenarioOutcome> pilot_outcomes =
      engine_->EvaluateScenarios(pilot_ids, pool);

  std::vector<Features> pilot_rows;
  std::vector<double> pilot_targets;
  pilot_rows.reserve(pilot_slots.size());
  for (std::size_t i = 0; i < pilot_slots.size(); ++i) {
    pilot_rows.push_back(features[pilot_slots[i]]);
    pilot_targets.push_back(pilot_outcomes[i].delta_bit_risk_miles);
  }
  const Surrogate fit =
      FitSurrogate(pilot_rows, pilot_targets, options_.ridge_lambda);
  const double threshold =
      pilot_targets.empty()
          ? 0.0
          : stats::Quantile(pilot_targets, options_.impact_quantile);
  const double margin = options_.uncertainty_margin * fit.residual_sd;

  // Stage 3 — lane assignment and stratum statistics, one serial pass in
  // ascending id order (cheap arithmetic; everything here is a pure
  // function of the features).
  std::vector<double> predicted(n, 0.0);
  std::vector<Lane> lane(n, Lane::kSampled);
  std::vector<std::uint8_t> stratum(n, 0);
  std::vector<bool> is_pilot(n, false);
  for (const std::size_t s : pilot_slots) is_pilot[s] = true;
  constexpr std::size_t kStrata = 16;  // 4 seasons x 4 size buckets
  std::array<std::size_t, kStrata> stratum_count{};
  std::array<double, kStrata> stratum_impact{};
  double total_impact = 0.0;
  std::size_t sampled_total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const Features& f = features[s];
    if (f.empty) {
      lane[s] = Lane::kEmpty;
      continue;
    }
    predicted[s] = fit.Predict(f);
    if (is_pilot[s]) {
      lane[s] = Lane::kPilot;
      continue;
    }
    if (universe[s] % options_.audit_stride == 0) {
      lane[s] = Lane::kAudit;
      continue;
    }
    if (predicted[s] + margin >= threshold) {
      lane[s] = Lane::kFlagged;
      continue;
    }
    lane[s] = Lane::kSampled;
    const std::size_t h =
        static_cast<std::size_t>(f.season) * 4 +
        SizeBucket(static_cast<std::size_t>(f.failed_pops));
    stratum[s] = static_cast<std::uint8_t>(h);
    ++stratum_count[h];
    const double impact = std::fabs(predicted[s]);
    stratum_impact[h] += impact;
    total_impact += impact;
    ++sampled_total;
  }

  // Keep probabilities: proportional to the stratum's mean predicted
  // impact, floored and capped; sparse strata are kept whole.
  std::array<double, kStrata> keep_rate{};
  const double mean_impact =
      sampled_total > 0 ? total_impact / static_cast<double>(sampled_total)
                        : 0.0;
  std::size_t strata_used = 0;
  for (std::size_t h = 0; h < kStrata; ++h) {
    if (stratum_count[h] == 0) continue;
    ++strata_used;
    if (stratum_count[h] <= kWholeStratumLimit) {
      keep_rate[h] = 1.0;
      continue;
    }
    const double stratum_mean =
        stratum_impact[h] / static_cast<double>(stratum_count[h]);
    const double rate = mean_impact > 0.0
                            ? options_.base_rate * stratum_mean / mean_impact
                            : options_.base_rate;
    keep_rate[h] = std::min(1.0, std::max(options_.min_rate, rate));
  }

  // Stage 4 — the keep/drop coins: PhiloxRng(seed ^ salt, id), so each
  // decision is a pure function of (seed, id), decorrelated from the
  // footprint stream Draw(k) consumes.
  const std::uint64_t select_seed = engine_->options().seed ^ kSelectSalt;
  for (std::size_t s = 0; s < n; ++s) {
    if (lane[s] != Lane::kSampled) continue;
    util::PhiloxRng coin(select_seed, universe[s]);
    if (!(coin.NextUniform() < keep_rate[stratum[s]])) {
      lane[s] = Lane::kSkipped;
    }
  }

  // Stage 5 — exact evaluation of every non-pilot exact lane, per-slot
  // parallel; slot order pins outcome placement regardless of schedule.
  std::vector<std::size_t> exact_slots;
  for (std::size_t s = 0; s < n; ++s) {
    if (lane[s] == Lane::kAudit || lane[s] == Lane::kFlagged ||
        lane[s] == Lane::kSampled) {
      exact_slots.push_back(s);
    }
  }
  std::vector<std::uint64_t> exact_ids;
  exact_ids.reserve(exact_slots.size());
  for (const std::size_t s : exact_slots) exact_ids.push_back(universe[s]);
  const std::vector<ScenarioOutcome> exact_outcomes =
      engine_->EvaluateScenarios(exact_ids, pool);

  // Slot -> outcome lookup for the reduction.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> outcome_of(n, kNone);
  for (std::size_t i = 0; i < pilot_slots.size(); ++i) {
    outcome_of[pilot_slots[i]] = i;
  }
  for (std::size_t i = 0; i < exact_slots.size(); ++i) {
    outcome_of[exact_slots[i]] = pilot_outcomes.size() + i;
  }
  const auto outcome_at = [&](std::size_t s) -> const ScenarioOutcome& {
    const std::size_t i = outcome_of[s];
    return i < pilot_outcomes.size()
               ? pilot_outcomes[i]
               : exact_outcomes[i - pilot_outcomes.size()];
  };

  // Stage 6 — fixed-order Horvitz-Thompson reduction in ascending id
  // order. Exact lanes carry weight 1; kept sampled ids carry 1/pi of
  // their stratum; skipped ids are represented by their stratum-mates.
  TriagedReport report;
  report.universe = n;
  EnsembleReducer reducer(*engine_, engine_->options().criticality_top);
  static const ScenarioOutcome kZeroOutcome;
  TriageCalibration& cal = report.calibration;
  cal.pilot_residual_sd = fit.residual_sd;
  cal.pilot_r2 = fit.r2;
  double err_sum = 0.0;
  double abs_err_sum = 0.0;
  double sq_err_sum = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    switch (lane[s]) {
      case Lane::kEmpty:
        ++report.empty_scenarios;
        reducer.Add(kZeroOutcome, 1.0);
        break;
      case Lane::kPilot:
        ++report.pilot_exact;
        reducer.Add(outcome_at(s), 1.0);
        break;
      case Lane::kAudit: {
        ++report.audit_exact;
        const ScenarioOutcome& outcome = outcome_at(s);
        reducer.Add(outcome, 1.0);
        const double err = predicted[s] - outcome.delta_bit_risk_miles;
        ++cal.audits;
        err_sum += err;
        abs_err_sum += std::fabs(err);
        sq_err_sum += err * err;
        cal.max_abs_error = std::max(cal.max_abs_error, std::fabs(err));
        break;
      }
      case Lane::kFlagged:
        ++report.flagged_exact;
        reducer.Add(outcome_at(s), 1.0);
        break;
      case Lane::kSampled:
        ++report.sampled_exact;
        reducer.Add(outcome_at(s), 1.0 / keep_rate[stratum[s]]);
        break;
      case Lane::kSkipped:
        ++report.skipped;
        break;
    }
  }
  if (cal.audits > 0) {
    const auto audits = static_cast<double>(cal.audits);
    cal.bias = err_sum / audits;
    cal.mean_abs_error = abs_err_sum / audits;
    cal.rmse = std::sqrt(sq_err_sum / audits);
  }
  report.strata = strata_used;
  report.exact_evaluations = report.pilot_exact + report.audit_exact +
                             report.flagged_exact + report.sampled_exact;
  report.exact_fraction =
      static_cast<double>(report.exact_evaluations) / static_cast<double>(n);
  report.weight_sum = reducer.weight_sum();
  report.estimate = std::move(reducer).Finish(engine_->options().seed, n);

  metrics.universe.Add(n);
  metrics.empty_scenarios.Add(report.empty_scenarios);
  metrics.pilot_exact.Add(report.pilot_exact);
  metrics.audit_exact.Add(report.audit_exact);
  metrics.flagged_exact.Add(report.flagged_exact);
  metrics.sampled_exact.Add(report.sampled_exact);
  metrics.skipped.Add(report.skipped);
  metrics.exact_evaluations.Add(report.exact_evaluations);
  return report;
}

std::string TriagedReport::ToJson() const {
  std::string out;
  out.reserve(2048 + 128 * estimate.criticality.size());
  char buf[96];
  const auto field = [&](const char* key, double v, const char* tail) {
    out += "  \"";
    out += key;
    out += "\": ";
    AppendDouble(out, v);
    out += tail;
  };
  out += "{\n  \"schema\": \"riskroute.ensemble.triage.v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"seed\": %" PRIu64 ",\n",
                estimate.seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"universe\": %zu,\n", universe);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"baseline_pairs\": %zu,\n",
                estimate.baseline_pairs);
  out += buf;
  field("baseline_bit_risk_miles", estimate.baseline_bit_risk_miles, ",\n");
  out += "  \"delta\": {";
  const struct {
    const char* key;
    double value;
  } delta_fields[] = {
      {"mean", estimate.delta_mean}, {"variance", estimate.delta_variance},
      {"min", estimate.delta_min},   {"max", estimate.delta_max},
      {"p5", estimate.delta_p5},     {"p50", estimate.delta_p50},
      {"p95", estimate.delta_p95},
  };
  for (std::size_t i = 0; i < std::size(delta_fields); ++i) {
    out += i == 0 ? "\"" : ", \"";
    out += delta_fields[i].key;
    out += "\": ";
    AppendDouble(out, delta_fields[i].value);
  }
  out += "},\n";
  field("mean_failed_pops", estimate.mean_failed_pops, ",\n");
  field("mean_severed_links", estimate.mean_severed_links, ",\n");
  field("mean_endpoint_pairs", estimate.mean_endpoint_pairs, ",\n");
  field("mean_disconnected_pairs", estimate.mean_disconnected_pairs, ",\n");
  out += "  \"triage\": {";
  const struct {
    const char* key;
    std::size_t value;
  } count_fields[] = {
      {"pilot_exact", pilot_exact},     {"audit_exact", audit_exact},
      {"flagged_exact", flagged_exact}, {"sampled_exact", sampled_exact},
      {"skipped", skipped},             {"empty_scenarios", empty_scenarios},
      {"strata", strata},               {"exact_evaluations", exact_evaluations},
  };
  for (std::size_t i = 0; i < std::size(count_fields); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %zu", i == 0 ? "" : ", ",
                  count_fields[i].key, count_fields[i].value);
    out += buf;
  }
  out += ", \"exact_fraction\": ";
  AppendDouble(out, exact_fraction);
  out += ", \"weight_sum\": ";
  AppendDouble(out, weight_sum);
  out += "},\n  \"calibration\": {";
  std::snprintf(buf, sizeof(buf), "\"audits\": %zu", calibration.audits);
  out += buf;
  const struct {
    const char* key;
    double value;
  } cal_fields[] = {
      {"mean_abs_error", calibration.mean_abs_error},
      {"rmse", calibration.rmse},
      {"max_abs_error", calibration.max_abs_error},
      {"bias", calibration.bias},
      {"pilot_residual_sd", calibration.pilot_residual_sd},
      {"pilot_r2", calibration.pilot_r2},
  };
  for (const auto& [key, value] : cal_fields) {
    out += ", \"";
    out += key;
    out += "\": ";
    AppendDouble(out, value);
  }
  out += "},\n  \"criticality\": [";
  for (std::size_t i = 0; i < estimate.criticality.size(); ++i) {
    const LinkCriticality& link = estimate.criticality[i];
    if (i != 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"a\": %zu, \"b\": %zu, \"failures\": %" PRIu64
                  ", \"delta_sum\": ",
                  link.a, link.b, link.failures);
    out += buf;
    AppendDouble(out, link.delta_sum);
    out += "}";
  }
  out += estimate.criticality.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace riskroute::sim

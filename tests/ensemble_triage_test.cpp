// Correctness wall for the surrogate-triaged ensemble layer:
//
//  - the triaged report is bitwise identical across 1/2/8 worker threads
//    and across universe-id permutations at N = 100k (the determinism
//    contract the API layer relies on for response-byte equality);
//  - Horvitz-Thompson reweighting is unbiased: triaged estimates over
//    many seeds straddle and converge to the plain exact-MC mean over
//    the same universe (predictions steer work, never the estimator);
//  - the audit lane reports finite, internally consistent calibration;
//  - TriageOptions domain validation is a structured reject, not UB;
//  - boundary draws — event picks landing exactly on a slice prefix-sum
//    edge — bucket into the correct catalog (the exact-integer slice
//    sampler regression; the old double-CDF bucketing loses exactly
//    these draws first as archives grow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "hazard/synthesis.h"
#include "sim/ensemble.h"
#include "sim/triage.h"
#include "tests/graph_fixtures.h"
#include "util/error.h"
#include "util/philox.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::RiskGraph;
using core::RouteEngine;
using sim::EnsembleEngine;
using sim::EnsembleOptions;
using sim::TriagedEnsemble;
using sim::TriagedReport;
using sim::TriageOptions;
using fixtures::RandomGraph;

struct TriageFixture {
  RiskGraph graph;
  RouteEngine engine;
  std::vector<hazard::Catalog> catalogs;

  explicit TriageFixture(std::uint64_t graph_seed = 2024)
      : graph([&] {
          util::Rng rng(graph_seed);
          return RandomGraph(16, 0.15, rng);
        }()),
        engine(graph, core::RiskParams{1e5, 1e3}),
        catalogs(hazard::SynthesizeAllCatalogs()) {}
};

EnsembleOptions EngineOptions(std::size_t scenarios,
                              std::uint64_t seed = 2026) {
  EnsembleOptions options;
  options.scenarios = scenarios;
  options.seed = seed;
  options.damage_radius_scale = 3.0;
  return options;
}

TriageOptions FastTriage() {
  TriageOptions options;
  options.pilot = 48;
  options.audit_stride = 128;
  options.base_rate = 0.05;
  options.min_rate = 0.01;
  return options;
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and universe permutations.

TEST(TriagedEnsemble, BitwiseIdenticalAcrossThreadCountsAt100k) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(100000));
  const TriagedEnsemble triaged(ensemble, FastTriage());

  const TriagedReport serial = triaged.Run(nullptr);
  EXPECT_EQ(serial.universe, 100000u);
  const std::string serial_json = serial.ToJson();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(serial_json, triaged.Run(&pool).ToJson())
        << "triaged report diverged at " << threads << " threads";
  }
}

TEST(TriagedEnsemble, UniversePermutationDoesNotChangeTheReport) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(4096));
  const TriagedEnsemble triaged(ensemble, FastTriage());
  util::ThreadPool pool(4);

  std::vector<std::uint64_t> ids(4096);
  std::iota(ids.begin(), ids.end(), 0);
  const std::string sorted_json = triaged.Run(ids, &pool).ToJson();
  EXPECT_EQ(sorted_json, triaged.Run(nullptr).ToJson());

  util::Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    EXPECT_EQ(sorted_json, triaged.Run(ids, &pool).ToJson())
        << "permutation round " << round;
  }
}

TEST(TriagedEnsemble, DuplicateAndEmptyUniversesAreRejected) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(64));
  const TriagedEnsemble triaged(ensemble, FastTriage());
  const std::vector<std::uint64_t> dup = {3, 7, 3};
  EXPECT_THROW((void)triaged.Run(dup, nullptr), InvalidArgument);
  const std::vector<std::uint64_t> none;
  EXPECT_THROW((void)triaged.Run(none, nullptr), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Estimator correctness.

TEST(TriagedEnsemble, LaneAccountingIsExhaustive) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(8192));
  const TriagedReport report = TriagedEnsemble(ensemble, FastTriage()).Run();

  EXPECT_EQ(report.universe, 8192u);
  EXPECT_EQ(report.empty_scenarios + report.pilot_exact + report.audit_exact +
                report.flagged_exact + report.sampled_exact + report.skipped,
            report.universe);
  EXPECT_EQ(report.exact_evaluations, report.pilot_exact + report.audit_exact +
                                          report.flagged_exact +
                                          report.sampled_exact);
  EXPECT_DOUBLE_EQ(report.exact_fraction,
                   static_cast<double>(report.exact_evaluations) /
                       static_cast<double>(report.universe));
  // The estimate spans the whole universe, not just evaluated scenarios.
  EXPECT_EQ(report.estimate.scenarios, report.universe);
  EXPECT_GT(report.weight_sum, 0.0);
  // Every non-sampled lane carries weight 1, so the realized weight sum
  // is at least the count of weight-1 scenarios.
  EXPECT_GE(report.weight_sum,
            static_cast<double>(report.universe - report.skipped -
                                report.sampled_exact));
}

TEST(TriagedEnsemble, HorvitzThompsonEstimateIsUnbiased) {
  // Fixed universe, varying engine seed: each seed draws a different
  // 20k-scenario universe, and for each the triaged delta-sum estimate
  // is compared against the plain exact run over the same universe. The
  // per-seed relative errors must straddle zero (no systematic tilt) and
  // their mean must shrink well below the typical single-seed deviation.
  const TriageFixture fx;
  double error_sum = 0.0;
  double abs_error_sum = 0.0;
  int positive = 0;
  int negative = 0;
  const int kSeeds = 8;
  for (int s = 0; s < kSeeds; ++s) {
    const EnsembleEngine ensemble(fx.engine, fx.catalogs,
                                  EngineOptions(20000, 3000 + s));
    const sim::EnsembleReport exact = ensemble.Run();
    TriageOptions triage = FastTriage();
    triage.base_rate = 0.20;  // denser sampling lanes: variance, not bias
    triage.min_rate = 0.05;
    const TriagedReport triaged = TriagedEnsemble(ensemble, triage).Run();
    ASSERT_GT(exact.delta_mean, 0.0);
    const double rel =
        (triaged.estimate.delta_mean - exact.delta_mean) / exact.delta_mean;
    error_sum += rel;
    abs_error_sum += std::abs(rel);
    (rel >= 0.0 ? positive : negative) += 1;
  }
  const double mean_error = error_sum / kSeeds;
  const double mean_abs_error = abs_error_sum / kSeeds;
  // Single-seed estimates wobble (HT variance), but the signed mean must
  // be small both absolutely and relative to the typical wobble.
  EXPECT_LT(mean_abs_error, 0.25);
  EXPECT_LT(std::abs(mean_error), 0.10);
  EXPECT_LT(std::abs(mean_error), mean_abs_error + 1e-12);
  EXPECT_GT(positive, 0);
  EXPECT_GT(negative, 0);
}

TEST(TriagedEnsemble, PredictionsNeverEnterTheEstimate) {
  // With every lane forced exact (base_rate = 1 keeps every stratum at
  // pi = 1), the triaged estimate must equal the plain run bit for bit:
  // same draws, same reducer, unit weights everywhere.
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(4096));
  TriageOptions everything = FastTriage();
  everything.base_rate = 1.0;
  everything.min_rate = 1.0;
  const TriagedReport triaged = TriagedEnsemble(ensemble, everything).Run();
  EXPECT_EQ(triaged.skipped, 0u);
  const sim::EnsembleReport exact = ensemble.Run();
  EXPECT_EQ(exact.ToJson(), triaged.estimate.ToJson());
}

TEST(TriagedEnsemble, CalibrationIsReportedAndConsistent) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(16384));
  TriageOptions triage = FastTriage();
  triage.audit_stride = 32;  // dense audit lane
  const TriagedReport report = TriagedEnsemble(ensemble, triage).Run();

  ASSERT_GT(report.audit_exact, 0u);
  const sim::TriageCalibration& cal = report.calibration;
  EXPECT_EQ(cal.audits, report.audit_exact);
  EXPECT_TRUE(std::isfinite(cal.mean_abs_error));
  EXPECT_TRUE(std::isfinite(cal.rmse));
  EXPECT_TRUE(std::isfinite(cal.bias));
  EXPECT_GE(cal.mean_abs_error, 0.0);
  EXPECT_GE(cal.rmse, cal.mean_abs_error - 1e-9);      // RMS >= mean |e|
  EXPECT_GE(cal.max_abs_error, cal.mean_abs_error);    // max >= mean
  EXPECT_LE(std::abs(cal.bias), cal.mean_abs_error + 1e-9);
  EXPECT_GE(cal.pilot_residual_sd, 0.0);
  EXPECT_LE(cal.pilot_r2, 1.0);
  // The calibration block is part of the deterministic JSON contract.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"calibration\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_abs_error\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Options validation.

TEST(TriagedEnsemble, ValidatesOptions) {
  const TriageFixture fx;
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, EngineOptions(64));
  const double nan = std::numeric_limits<double>::quiet_NaN();

  const auto rejects = [&](auto&& mutate) {
    TriageOptions bad = FastTriage();
    mutate(bad);
    EXPECT_THROW((void)TriagedEnsemble(ensemble, bad), InvalidArgument);
  };
  rejects([](TriageOptions& o) { o.pilot = 0; });
  rejects([](TriageOptions& o) { o.audit_stride = 0; });
  rejects([](TriageOptions& o) { o.base_rate = 0.0; });
  rejects([](TriageOptions& o) { o.base_rate = -0.25; });
  rejects([](TriageOptions& o) { o.base_rate = 1.5; });
  rejects([&](TriageOptions& o) { o.base_rate = nan; });
  rejects([](TriageOptions& o) { o.min_rate = 0.0; });
  rejects([](TriageOptions& o) { o.min_rate = 0.5; });  // > base_rate
  rejects([&](TriageOptions& o) { o.min_rate = nan; });
  rejects([](TriageOptions& o) { o.impact_quantile = 0.0; });
  rejects([](TriageOptions& o) { o.impact_quantile = 1.0; });
  rejects([&](TriageOptions& o) { o.impact_quantile = nan; });
  rejects([](TriageOptions& o) { o.uncertainty_margin = -1.0; });
  rejects([&](TriageOptions& o) {
    o.uncertainty_margin = std::numeric_limits<double>::infinity();
  });
  rejects([](TriageOptions& o) { o.ridge_lambda = -1e-6; });
  rejects([&](TriageOptions& o) { o.ridge_lambda = nan; });
  // The defaults and the fast profile are valid.
  EXPECT_NO_THROW((void)TriagedEnsemble(ensemble, TriageOptions{}));
  EXPECT_NO_THROW((void)TriagedEnsemble(ensemble, FastTriage()));
}

// ---------------------------------------------------------------------------
// Slice-sampler boundary regression (the double-CDF bugfix).

TEST(EnsembleEngine, BoundaryDrawsBucketIntoTheCorrectSlice) {
  // Draw k picks one uniform event index in [0, total) and buckets it by
  // exact integer prefix sums. For every interior slice boundary B
  // (cumulative count), pick B-1 must land in the earlier slice and pick
  // B in the later one. The test replays the engine's own RNG stream
  // (NextIndex consumes exactly one u64) to find draw indices whose pick
  // lands next to each boundary, then checks the drawn hazard type
  // against an independently computed expectation. The pre-fix
  // double-CDF bucketing agrees at these archive sizes but drifts at
  // continental ones — this pins the exact-integer contract either way.
  const TriageFixture fx;
  const EnsembleOptions options = EngineOptions(1 << 14);
  const EnsembleEngine ensemble(fx.engine, fx.catalogs, options);

  const auto layout = ensemble.SliceLayout();
  ASSERT_GT(layout.size(), 1u);
  std::vector<std::uint64_t> prefix;  // inclusive cumulative counts
  std::uint64_t total = 0;
  for (const auto& [catalog, count] : layout) {
    ASSERT_GT(count, 0u);
    total += count;
    prefix.push_back(total);
  }

  const auto slice_for_pick = [&](std::uint64_t pick) {
    return static_cast<std::size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), pick) - prefix.begin());
  };

  // Scan draw indices for picks adjacent to any interior boundary, plus
  // the extremes 0 and total - 1.
  std::size_t checked = 0;
  for (std::uint64_t k = 0; k < 200000 && checked < 12; ++k) {
    util::PhiloxRng rng(options.seed, k);
    const std::uint64_t pick = rng.NextIndex(total);
    const bool interesting =
        pick == 0 || pick == total - 1 ||
        std::binary_search(prefix.begin(), prefix.end(), pick) ||
        std::binary_search(prefix.begin(), prefix.end(), pick + 1);
    if (!interesting) continue;
    ++checked;
    const std::size_t expected_slice = slice_for_pick(pick);
    ASSERT_LT(expected_slice, layout.size());
    const hazard::HazardType expected_type =
        fx.catalogs[layout[expected_slice].first].type();
    EXPECT_EQ(ensemble.Draw(k).type, expected_type)
        << "draw " << k << " pick " << pick << " bucketed off-slice";
  }
  ASSERT_GE(checked, 4u) << "archive produced too few boundary draws to test";
}

}  // namespace
}  // namespace riskroute

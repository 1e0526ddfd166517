#include "provision/augmentation.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace riskroute::provision {
namespace {

/// Provisioning scan accounting. Call/candidate counts are fixed by the
/// greedy schedule (stable); the scan latency is wall-clock (volatile).
struct AugmentMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& scan_calls = reg.GetCounter("provision.augment.scan_calls");
  obs::Counter& scan_candidates =
      reg.GetCounter("provision.augment.scan_candidates");
  obs::Histogram& scan_ns = reg.GetTiming("provision.augment.scan_ns");
  obs::Counter& exact_rechecks =
      reg.GetCounter("provision.augment.exact_rechecks");

  static AugmentMetrics& Get() {
    static AugmentMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::vector<double> ScanCandidateObjectives(
    const core::RouteEngine& engine, const core::EdgeOverlay& accepted,
    const std::vector<CandidateLink>& candidates, util::ThreadPool* pool) {
  const std::size_t n = engine.node_count();
  const std::size_t c_count = candidates.size();
  AugmentMetrics& metrics = AugmentMetrics::Get();
  metrics.scan_calls.Add(1);
  metrics.scan_candidates.Add(c_count);
  obs::ScopedTimer scan_timer(metrics.scan_ns);
  const core::EdgeOverlay* overlay = accepted.empty() ? nullptr : &accepted;
  std::vector<std::vector<double>> per_source(n);

  const auto body = [&](std::size_t i) {
    thread_local core::DijkstraWorkspace from_i;
    thread_local core::DijkstraWorkspace from_j;
    std::vector<double>& sums = per_source[i];
    sums.assign(c_count, 0.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double alpha = engine.Alpha(i, j);
      engine.Run(from_i, i, alpha, std::nullopt, overlay);
      engine.Run(from_j, j, alpha, std::nullopt, overlay);
      const double d_ij = from_i.DistanceTo(j);
      const double score_j = engine.NodeScore(j);
      for (std::size_t c = 0; c < c_count; ++c) {
        const CandidateLink& link = candidates[c];
        const double score_a = engine.NodeScore(link.a);
        const double score_b = engine.NodeScore(link.b);
        // d'(i,j) = min(d(i,j),
        //               d(i,a) + [w + alpha*s(b)] + d(b,j),
        //               d(i,b) + [w + alpha*s(a)] + d(a,j)),
        // exact for a single added edge under non-negative weights. The
        // reverse legs come from the j-rooted sweep via the node-score
        // reversal identity d(x,j) = d(j,x) + alpha*(s(j) - s(x)).
        const double via_ab = from_i.DistanceTo(link.a) + link.direct_miles +
                              alpha * score_b + from_j.DistanceTo(link.b) +
                              alpha * (score_j - score_b);
        const double via_ba = from_i.DistanceTo(link.b) + link.direct_miles +
                              alpha * score_a + from_j.DistanceTo(link.a) +
                              alpha * (score_j - score_a);
        const double best = std::min({d_ij, via_ab, via_ba});
        // Candidates are intra-component, so a pair unreachable today
        // stays unreachable — skip it exactly as the Eq 4 sum does.
        if (std::isfinite(best)) sums[c] += best;
      }
    }
  };
  util::ParallelFor(pool, n, body);

  std::vector<double> objectives(c_count, 0.0);
  for (const std::vector<double>& sums : per_source) {
    for (std::size_t c = 0; c < sums.size(); ++c) objectives[c] += sums[c];
  }
  return objectives;
}

AugmentationResult GreedyAugment(const core::RouteEngine& engine,
                                 const AugmentationOptions& options,
                                 util::ThreadPool* pool) {
  if (options.links_to_add == 0) {
    throw InvalidArgument("GreedyAugment: links_to_add must be positive");
  }
  AugmentationResult result;
  core::EdgeOverlay accepted;  // links chosen in earlier greedy steps
  result.original_bit_risk_miles = engine.AggregateMinBitRisk(pool);

  std::vector<CandidateLink> candidates =
      EnumerateCandidateLinks(engine, options.candidates, pool);

  for (std::size_t step = 0; step < options.links_to_add; ++step) {
    if (candidates.empty()) break;
    // Rank every candidate with the incremental scan, then settle the
    // winner by exact overlay evaluation over the scan's near-ties. The
    // slack is orders of magnitude above the scan's association-order
    // error, and ties in the exact objective fall to the lowest candidate
    // index — the legacy full-sweep evaluation order.
    const std::vector<double> scan =
        ScanCandidateObjectives(engine, accepted, candidates, pool);
    double best_scan = std::numeric_limits<double>::infinity();
    for (const double value : scan) best_scan = std::min(best_scan, value);
    const double slack = std::abs(best_scan) * 1e-6 + 1e-9;

    double best_objective = std::numeric_limits<double>::infinity();
    std::size_t best_index = candidates.size();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (scan[c] > best_scan + slack) continue;
      AugmentMetrics::Get().exact_rechecks.Add(1);
      core::EdgeOverlay trial = accepted;
      trial.AddEdge(candidates[c].a, candidates[c].b,
                    candidates[c].direct_miles);
      const double objective = engine.AggregateMinBitRisk(pool, &trial);
      if (objective < best_objective) {
        best_objective = objective;
        best_index = c;
      }
    }
    const double previous = result.steps.empty()
                                ? result.original_bit_risk_miles
                                : result.steps.back().bit_risk_miles;
    if (best_index == candidates.size() || best_objective >= previous) {
      break;  // no candidate helps any more
    }
    const CandidateLink chosen = candidates[best_index];
    accepted.AddEdge(chosen.a, chosen.b, chosen.direct_miles);
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(best_index));
    result.steps.push_back(AugmentationStep{
        chosen, best_objective,
        best_objective / result.original_bit_risk_miles});
  }
  return result;
}

}  // namespace riskroute::provision

#include "stats/bandwidth_cv.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "stats/kernel_density.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute::stats {
namespace {

/// Deterministically selects at most `cap` elements of `items` (uniformly,
/// via a seeded shuffle of indices) preserving no particular order.
std::vector<geo::GeoPoint> Subsample(const std::vector<geo::GeoPoint>& items,
                                     std::size_t cap, std::uint64_t seed) {
  if (items.size() <= cap) return items;
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<geo::GeoPoint> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) out.push_back(items[order[i]]);
  return out;
}

/// Mean negative log held-out density of one (candidate, fold) cell.
double FoldScore(const std::vector<geo::GeoPoint>& train,
                 const std::vector<geo::GeoPoint>& eval, double bandwidth,
                 double density_floor) {
  const KernelDensity2D model(train, bandwidth);
  const std::vector<double> densities = model.EvaluateBatch(eval);
  double nll = 0.0;
  for (const double density : densities) {
    nll -= std::log(std::max(density_floor, density));
  }
  return nll / static_cast<double>(eval.size());
}

}  // namespace

std::vector<double> LogSpacedBandwidths(double lo, double hi,
                                        std::size_t count) {
  if (!(lo > 0.0) || !(hi > lo) || count < 2) {
    throw InvalidArgument("LogSpacedBandwidths: need 0 < lo < hi, count >= 2");
  }
  std::vector<double> out(count);
  const double log_lo = std::log(lo);
  const double log_hi = std::log(hi);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(count - 1);
    out[i] = std::exp(log_lo + t * (log_hi - log_lo));
  }
  // exp(log(...)) rounding can land the endpoints a few ulps off `lo`/`hi`
  // (and on pathological inputs even out of order); pin them exactly.
  out.front() = lo;
  out.back() = hi;
  for (std::size_t i = 1; i < count; ++i) {
    if (!(out[i] > out[i - 1])) {
      throw InternalError("LogSpacedBandwidths: grid is not increasing");
    }
  }
  return out;
}

BandwidthSelection SelectBandwidth(const std::vector<geo::GeoPoint>& events,
                                   const std::vector<double>& candidates,
                                   const CrossValidationOptions& options) {
  if (candidates.empty()) {
    throw InvalidArgument("SelectBandwidth: no candidate bandwidths");
  }
  if (options.folds < 2 || events.size() < options.folds) {
    throw InvalidArgument("SelectBandwidth: need at least `folds` events");
  }

  // Deterministic fold assignment.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng.engine());

  // Pre-split folds once; reused for every candidate bandwidth so scores
  // are comparable.
  std::vector<std::vector<geo::GeoPoint>> train(options.folds);
  std::vector<std::vector<geo::GeoPoint>> eval(options.folds);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t fold = rank % options.folds;
    for (std::size_t f = 0; f < options.folds; ++f) {
      if (f == fold) {
        eval[f].push_back(events[order[rank]]);
      } else {
        train[f].push_back(events[order[rank]]);
      }
    }
  }
  for (std::size_t f = 0; f < options.folds; ++f) {
    train[f] = Subsample(train[f], options.max_train_events,
                         options.seed ^ (0x77A1 + f));
    eval[f] = Subsample(eval[f], options.max_eval_events,
                        options.seed ^ (0xE7A1 + f));
  }

  // Every (candidate, fold) cell is independent; fan them out across the
  // pool. Each cell's score does not depend on which thread ran it, and
  // the reductions below run serially in fixed order, so the sweep is
  // deterministic for any thread count.
  const std::size_t cells = candidates.size() * options.folds;
  std::vector<double> cell_scores(cells, 0.0);
  const auto score_cell = [&](std::size_t t) {
    const std::size_t cand = t / options.folds;
    const std::size_t fold = t % options.folds;
    cell_scores[t] = FoldScore(train[fold], eval[fold], candidates[cand],
                               options.density_floor);
  };
  util::ParallelFor(options.pool, cells, score_cell);

  BandwidthSelection selection;
  selection.scores.reserve(candidates.size());
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t cand = 0; cand < candidates.size(); ++cand) {
    double fold_sum = 0.0;
    for (std::size_t f = 0; f < options.folds; ++f) {
      fold_sum += cell_scores[cand * options.folds + f];
    }
    const double score = fold_sum / static_cast<double>(options.folds);
    selection.scores.push_back(BandwidthScore{candidates[cand], score});
    if (score < best_score) {
      best_score = score;
      selection.best_bandwidth_miles = candidates[cand];
    }
  }
  return selection;
}

}  // namespace riskroute::stats

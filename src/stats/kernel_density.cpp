#include "stats/kernel_density.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geo/distance.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace riskroute::stats {
namespace {
constexpr double kTwoPi = 6.28318530717958647692;
constexpr double kTruncationSigmas = 5.0;

/// KDE metrics, one registry lookup per process. Work counters (points,
/// cells) are per-call properties independent of scheduling, so stable;
/// wall-clock timings are volatile. Raster dispatches each row through
/// EvaluateBatch, so a Raster call also advances the batch counters.
struct KdeMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& builds = reg.GetCounter("stats.kde.builds");
  obs::Histogram& build_ns = reg.GetTiming("stats.kde.build_ns");
  obs::Counter& point_evals = reg.GetCounter("stats.kde.point_evals");
  obs::Counter& batch_calls = reg.GetCounter("stats.kde.batch_calls");
  obs::Counter& batch_points = reg.GetCounter("stats.kde.batch_points");
  obs::Histogram& batch_ns = reg.GetTiming("stats.kde.batch_ns");
  obs::Counter& raster_calls = reg.GetCounter("stats.kde.raster_calls");
  obs::Counter& raster_cells = reg.GetCounter("stats.kde.raster_cells");
  obs::Histogram& raster_ns = reg.GetTiming("stats.kde.raster_ns");

  static KdeMetrics& Get() {
    static KdeMetrics metrics;
    return metrics;
  }
};
}  // namespace

KernelDensity2D::KernelDensity2D(std::vector<geo::GeoPoint> events,
                                 double bandwidth_miles)
    : events_(std::move(events)),
      bandwidth_miles_(bandwidth_miles),
      truncation_miles_(kTruncationSigmas * bandwidth_miles),
      norm_(0.0),
      inv_two_sigma2_(0.0) {
  KdeMetrics& metrics = KdeMetrics::Get();
  metrics.builds.Add(1);
  obs::ScopedTimer build_timer(metrics.build_ns);
  if (events_.empty()) {
    throw InvalidArgument("KernelDensity2D: empty event set");
  }
  if (!(bandwidth_miles > 0.0)) {
    throw InvalidArgument("KernelDensity2D: bandwidth must be positive");
  }
  norm_ = 1.0 / (static_cast<double>(events_.size()) * kTwoPi *
                 bandwidth_miles_ * bandwidth_miles_);
  inv_two_sigma2_ = 1.0 / (2.0 * bandwidth_miles_ * bandwidth_miles_);
  // Cell size on the order of the truncation window keeps the visited-cell
  // count small while the per-cell point lists stay proportional to local
  // event density.
  const geo::BoundingBox bounds =
      geo::BoundingBox::Around(events_).Padded(0.5);
  const double cell = std::max(2.0, truncation_miles_ / 2.0);
  index_ = std::make_unique<spatial::GridIndex>(events_, bounds, cell);
  // Project every event once, in the grid's CSR slot order so a cell's
  // events occupy a contiguous range of the arrays.
  const std::vector<std::size_t>& order = index_->OrderedIndices();
  ex_.resize(order.size());
  ey_.resize(order.size());
  ecos_.resize(order.size());
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const Projected p = Project(events_[order[slot]]);
    ex_[slot] = p.x;
    ey_[slot] = p.y;
    ecos_[slot] = p.cos_lat;
  }
}

KernelDensity2D::Projected KernelDensity2D::Project(
    const geo::GeoPoint& p) const {
  const double lat_rad = geo::DegToRad(p.latitude());
  Projected out;
  out.x = geo::kEarthRadiusMiles * geo::DegToRad(p.longitude());
  out.y = geo::kEarthRadiusMiles * lat_rad;
  out.cos_lat = std::cos(lat_rad);
  return out;
}

double KernelDensity2D::KernelSum(const geo::GeoPoint& y,
                                  const Projected& q) const {
  const double trunc2 = truncation_miles_ * truncation_miles_;
  const spatial::CellRect rect = index_->RectNear(y, truncation_miles_);
  double sum = 0.0;
  for (std::size_t r = rect.r0; r <= rect.r1; ++r) {
    // Cells [c0, c1] of one grid row are contiguous in the CSR layout, so
    // the whole row is a single dense range: no per-cell bookkeeping and
    // an autovectorizable multiply-add body.
    const std::size_t first = index_->CellSlotRange(r, rect.c0).first;
    const std::size_t last = index_->CellSlotRange(r, rect.c1).second;
    const double* const ex = ex_.data();
    const double* const ey = ey_.data();
    const double* const ecos = ecos_.data();
    // Branchless ternary so the compiler can emit a masked vectorized exp
    // (libmvec) over the whole range; truncated lanes contribute exact 0.
    for (std::size_t k = first; k < last; ++k) {
      const double dy = ey[k] - q.y;
      const double cmid = 0.5 * (ecos[k] + q.cos_lat);
      const double dx = (ex[k] - q.x) * cmid;
      const double d2 = dy * dy + dx * dx;
      sum += d2 <= trunc2 ? std::exp(-d2 * inv_two_sigma2_) : 0.0;
    }
  }
  return sum;
}

double KernelDensity2D::Evaluate(const geo::GeoPoint& y) const {
  KdeMetrics::Get().point_evals.Add(1);
  return norm_ * KernelSum(y, Project(y));
}

void KernelDensity2D::EvaluateBatch(std::span<const geo::GeoPoint> ys,
                                    std::span<double> out) const {
  if (ys.size() != out.size()) {
    throw InvalidArgument("EvaluateBatch: output span size mismatch");
  }
  KdeMetrics& metrics = KdeMetrics::Get();
  metrics.batch_calls.Add(1);
  metrics.batch_points.Add(ys.size());
  obs::ScopedTimer batch_timer(metrics.batch_ns);
  // Process queries grouped by grid cell: consecutive queries then stream
  // the same event ranges, which keeps the SoA slices hot in cache. The
  // per-query arithmetic is identical to Evaluate, so out[i] is bitwise
  // Evaluate(ys[i]) regardless of the processing order.
  std::vector<std::size_t> queries(ys.size());
  std::iota(queries.begin(), queries.end(), 0);
  std::vector<std::size_t> cell(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    cell[i] = index_->CellIdOf(ys[i]);
  }
  std::stable_sort(queries.begin(), queries.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cell[a] < cell[b];
                   });
  for (const std::size_t i : queries) {
    out[i] = norm_ * KernelSum(ys[i], Project(ys[i]));
  }
}

std::vector<double> KernelDensity2D::EvaluateBatch(
    std::span<const geo::GeoPoint> ys) const {
  std::vector<double> out(ys.size());
  EvaluateBatch(ys, out);
  return out;
}

double KernelDensity2D::MeanDensity(
    const std::vector<geo::GeoPoint>& ys) const {
  if (ys.empty()) throw InvalidArgument("MeanDensity: empty query set");
  const std::vector<double> densities = EvaluateBatch(ys);
  double sum = 0.0;
  for (const double d : densities) sum += d;
  return sum / static_cast<double>(ys.size());
}

std::vector<double> KernelDensity2D::Raster(const geo::BoundingBox& bounds,
                                            std::size_t rows,
                                            std::size_t cols,
                                            util::ThreadPool* pool) const {
  if (rows == 0 || cols == 0) {
    throw InvalidArgument("Raster: rows and cols must be positive");
  }
  KdeMetrics& metrics = KdeMetrics::Get();
  metrics.raster_calls.Add(1);
  metrics.raster_cells.Add(rows * cols);
  obs::ScopedTimer raster_timer(metrics.raster_ns);
  std::vector<double> grid(rows * cols, 0.0);
  const double lat_step = (bounds.max_lat() - bounds.min_lat()) /
                          static_cast<double>(rows);
  const double lon_step = (bounds.max_lon() - bounds.min_lon()) /
                          static_cast<double>(cols);
  const auto evaluate_row = [&](std::size_t r) {
    const double lat = bounds.min_lat() + (static_cast<double>(r) + 0.5) * lat_step;
    std::vector<geo::GeoPoint> centers;
    centers.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const double lon =
          bounds.min_lon() + (static_cast<double>(c) + 0.5) * lon_step;
      centers.emplace_back(lat, lon);
    }
    EvaluateBatch(centers, std::span<double>(grid.data() + r * cols, cols));
  };
  // Each row writes a disjoint slice and every cell is an independent
  // query, so the result is bitwise identical for any thread count.
  util::ParallelFor(pool, rows, evaluate_row);
  return grid;
}

}  // namespace riskroute::stats

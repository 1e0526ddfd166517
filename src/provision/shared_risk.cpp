#include "provision/shared_risk.h"

#include <algorithm>
#include <cmath>

#include "geo/distance.h"
#include "util/error.h"
#include "util/philox.h"

namespace riskroute::provision {
namespace {

/// Fraction of `from`'s PoPs with a `to` PoP within `radius`.
double Overlap(const topology::Network& from, const topology::Network& to,
               double radius) {
  if (from.pop_count() == 0) return 0.0;
  std::size_t colocated = 0;
  for (const topology::Pop& pop : from.pops()) {
    const std::size_t nearest = to.NearestPop(pop.location);
    if (geo::GreatCircleMiles(pop.location, to.pop(nearest).location) <=
        radius) {
      ++colocated;
    }
  }
  return static_cast<double>(colocated) / static_cast<double>(from.pop_count());
}

bool EventHits(const topology::Network& network, const geo::GeoPoint& center,
               double radius) {
  for (const topology::Pop& pop : network.pops()) {
    if (geo::GreatCircleMiles(pop.location, center) <= radius) return true;
  }
  return false;
}

}  // namespace

double SharedRiskReport::JointLift() const {
  const double independent = outage_probability_a * outage_probability_b;
  if (independent <= 0.0) return joint_outage_probability > 0.0 ? 1e9 : 1.0;
  return joint_outage_probability / independent;
}

SharedRiskReport AnalyzeSharedRisk(const topology::Network& a,
                                   const topology::Network& b,
                                   const std::vector<hazard::Catalog>& catalogs,
                                   const SharedRiskOptions& options) {
  if (catalogs.empty()) {
    throw InvalidArgument("AnalyzeSharedRisk: no catalogs");
  }
  if (options.trials == 0) {
    throw InvalidArgument("AnalyzeSharedRisk: trials must be positive");
  }

  SharedRiskReport report;
  report.trials = options.trials;
  report.overlap_a_in_b = Overlap(a, b, options.colocation_radius_miles);
  report.overlap_b_in_a = Overlap(b, a, options.colocation_radius_miles);

  // Exact integer prefix sums over catalog sizes: the catalog pick is
  // one uniform event index bucketed against them, never a double CDF.
  std::vector<std::uint64_t> prefix;
  prefix.reserve(catalogs.size());
  std::uint64_t total_events = 0;
  for (const hazard::Catalog& c : catalogs) {
    total_events += static_cast<std::uint64_t>(c.size());
    prefix.push_back(total_events);
  }
  if (total_events == 0) {
    throw InvalidArgument("AnalyzeSharedRisk: catalogs hold no events");
  }

  std::size_t hits_a = 0, hits_b = 0, hits_both = 0;
  for (std::size_t t = 0; t < options.trials; ++t) {
    // One Philox stream per trial index: trial t's event is a pure
    // function of (seed, t), whatever order trials run in.
    util::PhiloxRng rng(options.seed, t);
    const std::uint64_t pick = rng.NextIndex(total_events);
    const std::size_t catalog_id = static_cast<std::size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), pick) - prefix.begin());
    const hazard::Catalog& catalog = catalogs[catalog_id];
    const hazard::Event& event =
        catalog.events()[rng.NextIndex(catalog.size())];
    const double radius =
        options.damage_radius_miles > 0.0
            ? options.damage_radius_miles
            : hazard::DefaultDamageRadiusMiles(catalog.type());
    const bool in_a = EventHits(a, event.location, radius);
    const bool in_b = EventHits(b, event.location, radius);
    if (in_a) ++hits_a;
    if (in_b) ++hits_b;
    if (in_a && in_b) ++hits_both;
  }

  const auto trials = static_cast<double>(options.trials);
  report.outage_probability_a = static_cast<double>(hits_a) / trials;
  report.outage_probability_b = static_cast<double>(hits_b) / trials;
  report.joint_outage_probability = static_cast<double>(hits_both) / trials;

  // Phi correlation of the two Bernoulli indicators.
  const double pa = report.outage_probability_a;
  const double pb = report.outage_probability_b;
  const double pab = report.joint_outage_probability;
  const double denom = std::sqrt(pa * (1 - pa) * pb * (1 - pb));
  report.outage_correlation = denom > 0.0 ? (pab - pa * pb) / denom : 0.0;
  return report;
}

}  // namespace riskroute::provision

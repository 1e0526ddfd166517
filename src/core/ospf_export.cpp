#include "core/ospf_export.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace riskroute::core {
namespace {

double EffectiveAlpha(const RouteEngine& engine,
                      const OspfExportOptions& options) {
  if (options.alpha > 0.0) return options.alpha;
  if (engine.node_count() == 0) return 0.0;
  // Mean alpha of a uniformly random pair is 2 * mean(c_i) = 2/N when the
  // fractions are normalized.
  double mean_fraction = 0.0;
  for (std::size_t v = 0; v < engine.node_count(); ++v) {
    mean_fraction += engine.impact_fraction(v);
  }
  mean_fraction /= static_cast<double>(engine.node_count());
  return 2.0 * mean_fraction;
}

}  // namespace

std::vector<OspfLinkCost> ComputeOspfCosts(const RouteEngine& engine,
                                           const OspfExportOptions& options) {
  const double alpha = EffectiveAlpha(engine, options);
  std::vector<OspfLinkCost> costs;
  for (std::size_t a = 0; a < engine.node_count(); ++a) {
    for (std::size_t e = engine.EdgeBegin(a); e < engine.EdgeEnd(a); ++e) {
      const std::size_t b = engine.EdgeHead(e);
      if (b < a) continue;  // one entry per undirected link
      const double weight =
          engine.EdgeMiles(e) +
          alpha * (engine.NodeScore(a) + engine.NodeScore(b)) / 2.0;
      costs.push_back(OspfLinkCost{a, b, weight, 1});
    }
  }
  if (costs.empty()) return costs;
  double max_weight = 0.0;
  for (const OspfLinkCost& c : costs) {
    max_weight = std::max(max_weight, c.composite_weight);
  }
  if (max_weight <= 0.0) max_weight = 1.0;
  for (OspfLinkCost& c : costs) {
    const double scaled = c.composite_weight / max_weight * 65535.0;
    c.cost = static_cast<std::uint16_t>(
        std::clamp(std::lround(scaled), 1L, 65535L));
  }
  return costs;
}

std::string RenderOspfConfig(const RouteEngine& engine,
                             const std::vector<OspfLinkCost>& costs) {
  std::ostringstream out;
  out << "! RiskRoute composite OSPF costs (miles + risk; see Section 3.1)\n";
  for (const OspfLinkCost& c : costs) {
    out << "link \"" << engine.node_name(c.a) << "\" \""
        << engine.node_name(c.b) << "\" cost " << c.cost << '\n';
  }
  return out.str();
}

RouteEngine CompositeEngine(const RouteEngine& engine,
                            const OspfExportOptions& options) {
  RiskGraph composite;
  for (std::size_t v = 0; v < engine.node_count(); ++v) {
    composite.AddNode(RiskNode{engine.node_name(v), engine.location(v)});
  }
  std::vector<WeightedLink> links;
  for (const OspfLinkCost& c : ComputeOspfCosts(engine, options)) {
    links.push_back(WeightedLink{c.a, c.b, c.composite_weight});
  }
  composite.AddEdgesUnchecked(links);
  return RouteEngine(composite, engine.params());
}

}  // namespace riskroute::core

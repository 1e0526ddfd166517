// Backup plan: everything the paper's Section 3 sketches for putting
// RiskRoute into practice, end to end for one network:
//
//   1. composite OSPF link costs (risk folded into the IGP metric),
//   2. IP Fast Reroute loop-free alternates under those costs,
//   3. MPLS-style bypass tunnels around the riskiest PoP,
//   4. a node-disjoint primary/backup pair (Suurballe) for a key city
//      pair — a backup that cannot share the primary's disaster fate.
//
//   $ ./backup_plan [network] [from] [to]
//
// Defaults: Sprint, its two highest-impact PoPs.
#include <algorithm>
#include <cstdio>
#include <string>

#include "api/api.h"

using namespace riskroute;

namespace {

void PrintPath(const core::RiskGraph& graph, const char* label,
               const core::Path& path) {
  std::printf("%s: ", label);
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::printf("%s%s", graph.node(path[i]).name.c_str(),
                i + 1 == path.size() ? "\n" : " -> ");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string network_name = argc > 1 ? argv[1] : "Sprint";
  std::puts("Building the RiskRoute study...");
  const core::Study study = core::Study::Build();
  const core::RiskGraph graph = study.BuildGraphFor(network_name);

  // --- 1. Composite OSPF costs. ---
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 1e3});
  const auto costs = core::ComputeOspfCosts(engine);
  std::printf("\n1. Composite OSPF costs for %s (%zu links; top 5 by cost):\n",
              network_name.c_str(), costs.size());
  auto sorted = costs;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.cost > b.cost; });
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size()); ++i) {
    std::printf("   %-24s <-> %-24s cost %u\n",
                graph.node(sorted[i].a).name.c_str(),
                graph.node(sorted[i].b).name.c_str(), sorted[i].cost);
  }

  // --- 2. IP-FRR coverage under the composite costs (routed at alpha 0). ---
  const core::RouteEngine composite = core::CompositeEngine(engine);
  const core::RoutingTable table = core::BuildRoutingTable(composite, 0.0);
  const auto lfas = core::ComputeLfas(composite, table);
  std::printf("\n2. IP Fast Reroute: %.1f%% of (src,dst) pairs have a "
              "loop-free alternate ready.\n",
              100.0 * core::LfaCoverage(lfas));

  // --- 3. MPLS bypass around the riskiest PoP. ---
  std::size_t riskiest = 0;
  for (std::size_t i = 1; i < graph.node_count(); ++i) {
    if (graph.node(i).historical_risk >
        graph.node(riskiest).historical_risk) {
      riskiest = i;
    }
  }
  std::printf("\n3. MPLS node protection for the riskiest PoP, %s "
              "(o_h = %.3f):\n",
              graph.node(riskiest).name.c_str(),
              graph.node(riskiest).historical_risk);
  std::size_t protected_count = 0, unprotectable = 0;
  for (const core::RiskEdge& e : graph.OutEdges(riskiest)) {
    for (const core::RiskEdge& f : graph.OutEdges(riskiest)) {
      if (e.to >= f.to) continue;
      const auto bypass =
          core::NodeBypass(composite, e.to, f.to, riskiest, 0.0);
      if (bypass) {
        ++protected_count;
      } else {
        ++unprotectable;
      }
    }
  }
  std::printf("   %zu neighbour pairs protected by bypass tunnels, %zu have "
              "no detour.\n",
              protected_count, unprotectable);

  // --- 4. Node-disjoint primary/backup pair. ---
  std::size_t src = 0, dst = 1;
  if (argc > 3) {
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      if (graph.node(i).name == argv[2]) src = i;
      if (graph.node(i).name == argv[3]) dst = i;
    }
  } else {
    // Two highest-impact PoPs: the pair whose traffic matters most.
    std::vector<std::size_t> order(graph.node_count());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return graph.node(a).impact_fraction > graph.node(b).impact_fraction;
    });
    src = order[0];
    dst = order[1];
  }
  std::printf("\n4. Node-disjoint primary/backup between %s and %s "
              "(bit-risk objective):\n",
              graph.node(src).name.c_str(), graph.node(dst).name.c_str());
  const auto pair =
      core::FindDisjointPair(engine, src, dst, engine.Alpha(src, dst),
                             core::Disjointness::kNodeDisjoint);
  if (!pair) {
    std::puts("   no node-disjoint pair exists (articulation point between "
              "the endpoints)");
    return 0;
  }
  PrintPath(graph, "   primary", pair->first);
  PrintPath(graph, "   backup ", pair->second);
  std::printf("   combined bit-risk miles: %.0f — the backup shares no PoP "
              "with the primary, so no single disaster takes both.\n",
              pair->total_weight);
  return 0;
}

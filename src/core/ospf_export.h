// Composite OSPF/IS-IS link weights (paper Section 3.1).
//
// "To address robustness to disasters within a single domain, the
// RiskRoute metric can be used directly in standard intra-domain routing
// protocols such as OSPF or ISIS. ... The approach would simply be to
// create link weights that are a composite metric based on operational
// objectives and RiskRoute." This module turns a frozen risk graph into
// such a composite weight set: each link's cost combines its mileage with
// the endpoint risk scores, scaled into the 16-bit integer range OSPF
// costs live in, and renders a plain-text configuration snippet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/route_engine.h"

namespace riskroute::core {

/// One exported link cost.
struct OspfLinkCost {
  std::size_t a = 0;
  std::size_t b = 0;
  double composite_weight = 0.0;  // miles + risk term (pre-quantization)
  std::uint16_t cost = 1;         // quantized OSPF cost in [1, 65535]
};

/// Export options. The risk scaling (lambdas) is the engine's params; the
/// node risk of both endpoints is averaged since a link cost cannot
/// depend on direction.
struct OspfExportOptions {
  /// Effective impact scale replacing the pair-dependent alpha_ij (a link
  /// weight must be pair-independent); defaults to the mean alpha of a
  /// uniform pair, 2/N, computed automatically when <= 0.
  double alpha = 0.0;
};

/// Computes composite weights for every link of the frozen engine and
/// quantizes them into OSPF costs such that the largest weight maps to
/// 65535 and proportions are preserved (minimum cost 1).
[[nodiscard]] std::vector<OspfLinkCost> ComputeOspfCosts(
    const RouteEngine& engine, const OspfExportOptions& options = {});

/// Renders "link <nameA> <nameB> cost <c>" lines (stable order).
[[nodiscard]] std::string RenderOspfConfig(
    const RouteEngine& engine, const std::vector<OspfLinkCost>& costs);

/// The engine's topology frozen with every link's (unquantized) composite
/// weight as its mileage and all-zero risk planes, so routing the result
/// at alpha 0 simulates deploying the exported costs on the same network.
[[nodiscard]] RouteEngine CompositeEngine(
    const RouteEngine& engine, const OspfExportOptions& options = {});

}  // namespace riskroute::core

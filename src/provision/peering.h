// New-peering recommendation (paper Section 6.3, Figure 11).
//
// In the multi-domain case a network cannot add links inside other
// networks; instead it can establish a new peering (or multihoming egress)
// where its PoPs are co-located with another network's. Candidate peers
// are networks with co-located PoPs but no existing AS peering; the best
// candidate minimizes the interdomain lower-bound bit-risk miles from the
// network's PoPs to all regional PoPs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/interdomain.h"
#include "core/route_engine.h"
#include "topology/corpus.h"
#include "util/thread_pool.h"

namespace riskroute::provision {

/// A co-located PoP pair that could realize a new peering.
struct ColocatedPair {
  std::size_t pop_a = 0;  // PoP index within network A
  std::size_t pop_b = 0;  // PoP index within network B
  double miles = 0.0;
};

/// One candidate peer network and its realizable interconnection points.
struct CandidatePeer {
  std::size_t network = 0;  // corpus index of the candidate peer
  std::vector<ColocatedPair> pairs;
};

/// Which networks qualify as candidate peers. The paper evaluates new
/// peering as an "additional multihoming egress point" toward transit
/// providers, and its Figure 11 recommendations are all Tier-1s — so the
/// Tier-1-only scope is the default; kAnyNetwork admits regional-regional
/// peering too.
enum class PeerScope { kTier1Only, kAnyNetwork };

/// Enumerates candidate peers of `network_index`: corpus networks within
/// scope with at least one PoP within `colocation_radius_miles` of one of
/// the network's PoPs and no existing AS peering.
[[nodiscard]] std::vector<CandidatePeer> EnumerateCandidatePeers(
    const topology::Corpus& corpus, std::size_t network_index,
    double colocation_radius_miles = 25.0,
    PeerScope scope = PeerScope::kTier1Only);

/// One evaluated candidate.
struct PeeringEvaluation {
  CandidatePeer peer;
  double objective = 0.0;  // lower-bound sum of min bit-risk miles
};

/// Recommendation result.
struct PeeringRecommendation {
  double baseline_objective = 0.0;         // without any new peering
  std::vector<PeeringEvaluation> evaluations;  // ascending objective
  /// Best candidate (evaluations.front()), if any candidate existed.
  [[nodiscard]] const PeeringEvaluation* best() const {
    return evaluations.empty() ? nullptr : &evaluations.front();
  }
};

/// Evaluates every candidate peer of `network_index` by layering its
/// co-location edges over `engine` (frozen from `merged.graph`) as an
/// EdgeOverlay and recomputing the interdomain lower-bound objective
/// (network PoPs -> all regional PoPs). The merged graph is never copied
/// or mutated. Throws InvalidArgument when `network_index` is outside
/// the corpus or the merged graph.
[[nodiscard]] PeeringRecommendation RecommendPeering(
    const core::RouteEngine& engine, const core::MergedGraph& merged,
    const topology::Corpus& corpus, std::size_t network_index,
    double colocation_radius_miles = 25.0, util::ThreadPool* pool = nullptr,
    PeerScope scope = PeerScope::kTier1Only);

}  // namespace riskroute::provision

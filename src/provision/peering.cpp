#include "provision/peering.h"

#include <algorithm>

#include "geo/distance.h"
#include "util/error.h"

namespace riskroute::provision {

std::vector<CandidatePeer> EnumerateCandidatePeers(
    const topology::Corpus& corpus, std::size_t network_index,
    double colocation_radius_miles, PeerScope scope) {
  if (network_index >= corpus.network_count()) {
    throw InvalidArgument("EnumerateCandidatePeers: network index out of range");
  }
  const topology::Network& self = corpus.network(network_index);
  std::vector<CandidatePeer> candidates;
  for (std::size_t other = 0; other < corpus.network_count(); ++other) {
    if (other == network_index || corpus.ArePeers(network_index, other)) {
      continue;
    }
    if (scope == PeerScope::kTier1Only &&
        corpus.network(other).kind() != topology::NetworkKind::kTier1) {
      continue;
    }
    const topology::Network& peer = corpus.network(other);
    CandidatePeer candidate;
    candidate.network = other;
    for (std::size_t pa = 0; pa < self.pop_count(); ++pa) {
      const std::size_t pb = peer.NearestPop(self.pop(pa).location);
      const double miles = geo::GreatCircleMiles(self.pop(pa).location,
                                                 peer.pop(pb).location);
      if (miles <= colocation_radius_miles) {
        candidate.pairs.push_back(ColocatedPair{pa, pb, miles});
      }
    }
    if (!candidate.pairs.empty()) candidates.push_back(std::move(candidate));
  }
  return candidates;
}

PeeringRecommendation RecommendPeering(const core::RouteEngine& engine,
                                       const core::MergedGraph& merged,
                                       const topology::Corpus& corpus,
                                       std::size_t network_index,
                                       double colocation_radius_miles,
                                       util::ThreadPool* pool,
                                       PeerScope scope) {
  if (network_index >= corpus.network_count() ||
      network_index >= merged.global_ids.size()) {
    throw InvalidArgument("RecommendPeering: network index out of range");
  }
  const std::vector<std::size_t>& sources = merged.global_ids[network_index];
  const std::vector<std::size_t> targets =
      core::RegionalTargets(merged, corpus);

  PeeringRecommendation recommendation;
  recommendation.baseline_objective =
      engine.SumMinBitRisk(sources, targets, pool);

  for (CandidatePeer& candidate : EnumerateCandidatePeers(
           corpus, network_index, colocation_radius_miles, scope)) {
    // Realize the peering at every co-location point as an overlay on the
    // frozen graph — no mutation, no restore.
    core::EdgeOverlay overlay;
    for (const ColocatedPair& pair : candidate.pairs) {
      const std::size_t ga = merged.GlobalId(network_index, pair.pop_a);
      const std::size_t gb = merged.GlobalId(candidate.network, pair.pop_b);
      if (!engine.HasEdge(ga, gb) && !overlay.HasAddedEdge(ga, gb)) {
        overlay.AddEdge(ga, gb, pair.miles);
      }
    }
    const double objective = engine.SumMinBitRisk(
        sources, targets, pool, overlay.empty() ? nullptr : &overlay);
    recommendation.evaluations.push_back(
        PeeringEvaluation{std::move(candidate), objective});
  }
  std::stable_sort(recommendation.evaluations.begin(),
            recommendation.evaluations.end(),
            [](const PeeringEvaluation& x, const PeeringEvaluation& y) {
              return x.objective < y.objective;
            });
  return recommendation;
}

}  // namespace riskroute::provision

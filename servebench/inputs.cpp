#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "forecast/tracks.h"
#include "geo/distance.h"
#include "util/philox.h"

namespace servebench {
namespace {

using riskroute::core::RouteEngine;
using riskroute::util::PhiloxRng;

// Philox stream ids, one per generator.
constexpr std::uint64_t kRouteStream = 0x5E21;
constexpr std::uint64_t kStormOrderStream = 0x5E23;
constexpr std::uint64_t kEnsembleSequenceStream = 0x5E25;

/// Connected-component label per node (BFS over the frozen CSR).
std::vector<std::size_t> Components(const RouteEngine& engine) {
  const std::size_t n = engine.node_count();
  std::vector<std::size_t> label(n, n);
  std::vector<std::size_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    if (label[s] != n) continue;
    label[s] = s;
    queue.assign(1, s);
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const std::size_t u = queue[q];
      for (std::size_t e = engine.EdgeBegin(u); e < engine.EdgeEnd(u); ++e) {
        const std::size_t v = engine.EdgeHead(e);
        if (label[v] == n) {
          label[v] = s;
          queue.push_back(v);
        }
      }
    }
  }
  return label;
}

/// Hop distance from `source` to every node (n = unreachable).
std::vector<std::size_t> HopsFrom(const RouteEngine& engine,
                                  std::size_t source) {
  const std::size_t n = engine.node_count();
  std::vector<std::size_t> hops(n, n);
  std::vector<std::size_t> queue{source};
  hops[source] = 0;
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const std::size_t u = queue[q];
    for (std::size_t e = engine.EdgeBegin(u); e < engine.EdgeEnd(u); ++e) {
      const std::size_t v = engine.EdgeHead(e);
      if (hops[v] == n) {
        hops[v] = hops[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return hops;
}

template <typename T>
void Shuffle(std::vector<T>& items, PhiloxRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextIndex(i)]);
  }
}

}  // namespace

std::vector<RoutePair> GenerateRoutePairs(const RouteEngine& engine,
                                          std::uint64_t seed,
                                          std::size_t count) {
  const std::size_t n = engine.node_count();
  std::unordered_map<std::string, std::size_t> name_count;
  for (std::size_t v = 0; v < n; ++v) ++name_count[engine.node_name(v)];
  std::vector<bool> unique(n);
  std::vector<std::size_t> candidates;
  for (std::size_t v = 0; v < n; ++v) {
    unique[v] = !engine.node_name(v).empty() &&
                name_count[engine.node_name(v)] == 1;
    if (unique[v]) candidates.push_back(v);
  }
  if (candidates.size() < 2) {
    throw std::runtime_error("route pairs: fewer than two unique PoP names");
  }
  const std::vector<std::size_t> component = Components(engine);

  PhiloxRng rng(seed, kRouteStream);
  std::vector<RoutePair> pairs;
  pairs.reserve(count);
  std::size_t attempts = 0;
  while (pairs.size() < count) {
    if (++attempts > 100 * count + 1000) {
      throw std::runtime_error("route pairs: no eligible pairs found");
    }
    const bool local = pairs.size() < count / 2;
    const std::size_t src = candidates[rng.NextIndex(candidates.size())];
    std::vector<std::size_t> eligible;
    if (local) {
      const std::size_t want = 2 + rng.NextIndex(3);  // 2-4 hops
      const std::vector<std::size_t> hops = HopsFrom(engine, src);
      for (const std::size_t v : candidates) {
        if (hops[v] == want) eligible.push_back(v);
      }
    } else {
      for (const std::size_t v : candidates) {
        if (component[v] == component[src] &&
            riskroute::geo::GreatCircleMiles(engine.location(src),
                                             engine.location(v)) >=
                kCrossCountryMiles) {
          eligible.push_back(v);
        }
      }
    }
    if (eligible.empty()) continue;
    const std::size_t dst = eligible[rng.NextIndex(eligible.size())];
    pairs.push_back({engine.node_name(src), engine.node_name(dst), local});
  }
  Shuffle(pairs, rng);
  return pairs;
}

std::vector<std::size_t> StormPlan::CycleOrder(std::uint64_t cycle) const {
  std::vector<std::size_t> order(bulletins.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  PhiloxRng rng(seed, kStormOrderStream + (cycle << 8));
  Shuffle(order, rng);
  return order;
}

StormPlan GenerateStormPlan(std::uint64_t seed) {
  StormPlan plan;
  plan.seed = seed;
  for (const riskroute::forecast::StormTrack* track :
       riskroute::forecast::AllTracks()) {
    plan.bulletins.push_back(
        riskroute::forecast::GenerateAdvisoryTexts(*track));
  }
  return plan;
}

std::vector<StormRequest> StormRequests(const StormPlan& plan,
                                        std::size_t first,
                                        std::size_t count) {
  std::size_t cycle_length = 0;
  for (const auto& storm : plan.bulletins) cycle_length += storm.size();
  std::vector<StormRequest> out;
  out.reserve(count);
  std::uint64_t cycle = first / cycle_length;
  std::size_t offset = first % cycle_length;
  while (out.size() < count) {
    const std::vector<std::size_t> order = plan.CycleOrder(cycle);
    std::size_t index = 0;
    for (const std::size_t storm : order) {
      for (std::size_t p = 0; p < plan.bulletins[storm].size(); ++p, ++index) {
        if (index < offset || out.size() == count) continue;
        out.push_back({storm, p, p == 0});
      }
    }
    ++cycle;
    offset = 0;
  }
  return out;
}

std::vector<riskroute::sim::EnsembleOptions> EnsembleOptionSets(
    std::size_t scenarios) {
  constexpr int kMonths[4] = {1, 4, 7, 10};
  std::vector<riskroute::sim::EnsembleOptions> sets;
  for (std::size_t i = 0; i < 4; ++i) {
    riskroute::sim::EnsembleOptions options;
    options.scenarios = scenarios;
    options.month = kMonths[i];
    options.seed = 2026 + i;
    options.criticality_top = 10;
    sets.push_back(options);
  }
  return sets;
}

std::vector<std::size_t> EnsembleSequence(std::uint64_t seed,
                                          std::size_t first,
                                          std::size_t count) {
  constexpr std::size_t kBlock = 16;
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t block = first / kBlock; out.size() < count; ++block) {
    std::vector<std::size_t> sets(kBlock);
    for (std::size_t k = 0; k < kBlock; ++k) sets[k] = k % 4;
    PhiloxRng rng(seed, kEnsembleSequenceStream + (block << 8));
    Shuffle(sets, rng);
    for (std::size_t k = 0; k < kBlock && out.size() < count; ++k) {
      if (block * kBlock + k >= first) out.push_back(sets[k]);
    }
  }
  return out;
}

namespace {

bool SameRoutes(const std::vector<RoutePair>& a,
                const std::vector<RoutePair>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const RoutePair& x, const RoutePair& y) {
                      return x.from == y.from && x.to == y.to &&
                             x.local == y.local;
                    });
}

bool SameStorms(const StormPlan& a, const StormPlan& b) {
  if (a.bulletins != b.bulletins) return false;
  for (std::uint64_t c = 0; c < 8; ++c) {
    if (a.CycleOrder(c) != b.CycleOrder(c)) return false;
  }
  return true;
}

}  // namespace

std::string SelfTest(const RouteEngine& engine, std::uint64_t seed) {
  constexpr std::size_t kPairs = 256;
  const std::vector<RoutePair> routes = GenerateRoutePairs(engine, seed, kPairs);
  if (!SameRoutes(routes, GenerateRoutePairs(engine, seed, kPairs))) {
    return "route pairs differ for one seed";
  }
  if (SameRoutes(routes, GenerateRoutePairs(engine, seed + 1, kPairs))) {
    return "route pairs do not change with the seed";
  }
  const std::size_t local = static_cast<std::size_t>(std::count_if(
      routes.begin(), routes.end(), [](const RoutePair& p) { return p.local; }));
  if (local != kPairs / 2) return "route pairs are not half local";

  const StormPlan storms = GenerateStormPlan(seed);
  if (!SameStorms(storms, GenerateStormPlan(seed))) {
    return "storm plan differs for one seed";
  }
  if (SameStorms(storms, GenerateStormPlan(seed + 1))) {
    return "storm plan does not change with the seed";
  }
  // A window read from the middle matches the same slice of a longer read.
  const std::vector<StormRequest> whole = StormRequests(storms, 0, 900);
  const std::vector<StormRequest> tail = StormRequests(storms, 300, 600);
  for (std::size_t k = 0; k < tail.size(); ++k) {
    const StormRequest& a = whole[300 + k];
    if (a.storm != tail[k].storm || a.position != tail[k].position ||
        a.reset != tail[k].reset) {
      return "storm request windows disagree";
    }
  }

  const std::vector<std::size_t> sequence = EnsembleSequence(seed, 0, 64);
  if (sequence != EnsembleSequence(seed, 0, 64)) {
    return "ensemble sequence differs for one seed";
  }
  if (sequence == EnsembleSequence(seed + 1, 0, 64)) {
    return "ensemble sequence does not change with the seed";
  }
  const std::vector<std::size_t> later = EnsembleSequence(seed, 20, 30);
  if (!std::equal(later.begin(), later.end(), sequence.begin() + 20)) {
    return "ensemble sequence windows disagree";
  }
  return "";
}

}  // namespace servebench

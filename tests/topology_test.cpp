// Unit tests for the topology module: network graph invariants, corpus
// bookkeeping, the gazetteer, the synthetic corpus generator (paper-scale
// checks), and serialization round-trips.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "geo/distance.h"
#include "topology/corpus.h"
#include "topology/gazetteer.h"
#include "topology/generator.h"
#include "topology/network.h"
#include "topology/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace riskroute::topology {
namespace {

Network MakeTriangle() {
  Network net("tri", NetworkKind::kRegional);
  net.AddPop(Pop{"A, TX", geo::GeoPoint(30, -95)});
  net.AddPop(Pop{"B, TX", geo::GeoPoint(31, -96)});
  net.AddPop(Pop{"C, TX", geo::GeoPoint(32, -97)});
  net.AddLink(0, 1);
  net.AddLink(1, 2);
  net.AddLink(0, 2);
  return net;
}

TEST(Network, RequiresName) {
  EXPECT_THROW(Network("", NetworkKind::kTier1), InvalidArgument);
}

TEST(Network, AddLinkValidation) {
  Network net = MakeTriangle();
  EXPECT_THROW(net.AddLink(0, 0), InvalidArgument);
  EXPECT_THROW(net.AddLink(0, 5), InvalidArgument);
}

TEST(Network, DuplicateLinksIgnored) {
  Network net = MakeTriangle();
  const std::size_t before = net.link_count();
  net.AddLink(0, 1);
  net.AddLink(1, 0);
  EXPECT_EQ(net.link_count(), before);
}

TEST(Network, NeighborsSorted) {
  Network net("n", NetworkKind::kRegional);
  for (int i = 0; i < 5; ++i) {
    net.AddPop(Pop{"P, TX", geo::GeoPoint(30 + i, -95)});
  }
  net.AddLink(2, 4);
  net.AddLink(2, 0);
  net.AddLink(2, 3);
  EXPECT_EQ(net.Neighbors(2), (std::vector<std::size_t>{0, 3, 4}));
}

TEST(Network, HasLinkSymmetric) {
  const Network net = MakeTriangle();
  EXPECT_TRUE(net.HasLink(0, 1));
  EXPECT_TRUE(net.HasLink(1, 0));
  EXPECT_FALSE(net.HasLink(0, 99));
}

TEST(Network, Connectivity) {
  Network net("n", NetworkKind::kRegional);
  net.AddPop(Pop{"A, TX", geo::GeoPoint(30, -95)});
  net.AddPop(Pop{"B, TX", geo::GeoPoint(31, -96)});
  net.AddPop(Pop{"C, TX", geo::GeoPoint(32, -97)});
  EXPECT_FALSE(net.IsConnected());
  net.AddLink(0, 1);
  EXPECT_FALSE(net.IsConnected());
  net.AddLink(1, 2);
  EXPECT_TRUE(net.IsConnected());
}

TEST(Network, FootprintIsMaxPairwiseDistance) {
  const Network net = MakeTriangle();
  const double expected = geo::GreatCircleMiles(geo::GeoPoint(30, -95),
                                                geo::GeoPoint(32, -97));
  EXPECT_NEAR(net.FootprintMiles(), expected, 1e-9);
}

TEST(Network, AverageDegreeAndLinkMiles) {
  const Network net = MakeTriangle();
  EXPECT_DOUBLE_EQ(net.AverageDegree(), 2.0);
  EXPECT_GT(net.TotalLinkMiles(), 0.0);
}

TEST(Network, NearestPopAndFind) {
  const Network net = MakeTriangle();
  EXPECT_EQ(net.NearestPop(geo::GeoPoint(30.1, -95.1)), 0u);
  EXPECT_EQ(net.FindPop("B, TX"), std::optional<std::size_t>(1));
  EXPECT_FALSE(net.FindPop("Z, TX").has_value());
}

TEST(NetworkKind, RoundTrip) {
  EXPECT_EQ(ParseNetworkKind(ToString(NetworkKind::kTier1)),
            NetworkKind::kTier1);
  EXPECT_EQ(ParseNetworkKind(ToString(NetworkKind::kRegional)),
            NetworkKind::kRegional);
  EXPECT_FALSE(ParseNetworkKind("bogus").has_value());
}

TEST(Corpus, RejectsDuplicateNames) {
  Corpus corpus;
  corpus.AddNetwork(Network("x", NetworkKind::kTier1));
  EXPECT_THROW(corpus.AddNetwork(Network("x", NetworkKind::kRegional)),
               InvalidArgument);
}

TEST(Corpus, PeeringBookkeeping) {
  Corpus corpus;
  corpus.AddNetwork(Network("a", NetworkKind::kTier1));
  corpus.AddNetwork(Network("b", NetworkKind::kTier1));
  corpus.AddNetwork(Network("c", NetworkKind::kRegional));
  corpus.AddPeering(0, 1);
  corpus.AddPeering(1, 0);  // duplicate ignored
  EXPECT_EQ(corpus.peerings().size(), 1u);
  EXPECT_TRUE(corpus.ArePeers(0, 1));
  EXPECT_FALSE(corpus.ArePeers(0, 2));
  EXPECT_EQ(corpus.PeersOf(1), (std::vector<std::size_t>{0}));
  EXPECT_THROW(corpus.AddPeering(0, 0), InvalidArgument);
  EXPECT_THROW(corpus.AddPeering(0, 9), InvalidArgument);
}

// ---------- gazetteer ----------

TEST(Gazetteer, HasPaperAnchorCities) {
  EXPECT_NE(FindCity("Houston", "TX"), nullptr);
  EXPECT_NE(FindCity("Boston", "MA"), nullptr);
  EXPECT_NE(FindCity("New Orleans", "LA"), nullptr);
  EXPECT_EQ(FindCity("Atlantis", "FL"), nullptr);
}

TEST(Gazetteer, AllCoordinatesValidAndInConusBox) {
  for (const City& city : Cities()) {
    ASSERT_TRUE(geo::IsValidLatLon(city.latitude, city.longitude)) << city.name;
    EXPECT_GT(city.population, 0) << city.name;
    EXPECT_GE(city.latitude, 24.0) << city.name;
    EXPECT_LE(city.latitude, 49.5) << city.name;
    EXPECT_GE(city.longitude, -125.0) << city.name;
    EXPECT_LE(city.longitude, -66.5) << city.name;
  }
}

TEST(Gazetteer, StateFilterWorks) {
  const auto ms = CitiesInStates({"MS"});
  EXPECT_GE(ms.size(), 10u);
  for (const City* c : ms) EXPECT_EQ(c->state, "MS");
  const auto all = CitiesInStates({});
  EXPECT_EQ(all.size(), Cities().size());
}

TEST(Gazetteer, NoDuplicateNameStatePairs) {
  std::set<std::pair<std::string_view, std::string_view>> seen;
  for (const City& city : Cities()) {
    EXPECT_TRUE(seen.emplace(city.name, city.state).second)
        << city.name << ", " << city.state;
  }
}

// ---------- generator ----------

TEST(Generator, PaperScaleCounts) {
  const Corpus corpus = GeneratePaperCorpus(123);
  EXPECT_EQ(corpus.network_count(), 23u);
  std::size_t tier1_pops = 0, regional_pops = 0;
  for (const Network& net : corpus.networks()) {
    if (net.kind() == NetworkKind::kTier1) {
      tier1_pops += net.pop_count();
    } else {
      regional_pops += net.pop_count();
    }
  }
  // Section 4.1: 7 Tier-1 networks with 354 PoPs, 16 regional with 455.
  EXPECT_EQ(corpus.NetworksOfKind(NetworkKind::kTier1).size(), 7u);
  EXPECT_EQ(corpus.NetworksOfKind(NetworkKind::kRegional).size(), 16u);
  EXPECT_EQ(tier1_pops, 354u);
  EXPECT_EQ(regional_pops, 455u);
}

TEST(Generator, EveryNetworkConnected) {
  const Corpus corpus = GeneratePaperCorpus(123);
  for (const Network& net : corpus.networks()) {
    EXPECT_TRUE(net.IsConnected()) << net.name();
  }
}

TEST(Generator, DeterministicForFixedSeed) {
  const Corpus a = GeneratePaperCorpus(77);
  const Corpus b = GeneratePaperCorpus(77);
  ASSERT_EQ(a.network_count(), b.network_count());
  for (std::size_t n = 0; n < a.network_count(); ++n) {
    ASSERT_EQ(a.network(n).pop_count(), b.network(n).pop_count());
    ASSERT_EQ(a.network(n).link_count(), b.network(n).link_count());
    for (std::size_t p = 0; p < a.network(n).pop_count(); ++p) {
      EXPECT_EQ(a.network(n).pop(p).name, b.network(n).pop(p).name);
      EXPECT_EQ(a.network(n).pop(p).location, b.network(n).pop(p).location);
    }
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const Corpus a = GeneratePaperCorpus(1);
  const Corpus b = GeneratePaperCorpus(2);
  bool any_difference = false;
  for (std::size_t n = 0; n < a.network_count() && !any_difference; ++n) {
    for (std::size_t p = 0; p < a.network(n).pop_count(); ++p) {
      if (!(a.network(n).pop(p).location == b.network(n).pop(p).location)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, Level3HasPaperCaseStudyPops) {
  const Corpus corpus = GeneratePaperCorpus(123);
  const Network& level3 = corpus.network(*corpus.FindNetwork("Level3"));
  EXPECT_EQ(level3.pop_count(), 233u);  // Table 2
  EXPECT_TRUE(level3.FindPop("Houston, TX").has_value());  // Figure 7
  EXPECT_TRUE(level3.FindPop("Boston, MA").has_value());
}

TEST(Generator, RegionalNetworksConfinedToTheirStates) {
  const Corpus corpus = GeneratePaperCorpus(123);
  // Telepak is a Mississippi-area network (paper case study: Katrina).
  const Network& telepak = corpus.network(*corpus.FindNetwork("Telepak"));
  for (const Pop& pop : telepak.pops()) {
    // All PoPs within ~350 miles of Jackson, MS (footprint sanity).
    EXPECT_LT(geo::GreatCircleMiles(pop.location, geo::GeoPoint(32.3, -90.2)),
              400.0)
        << pop.name;
  }
}

TEST(Generator, PeeringsMatchFigure2Structure) {
  const Corpus corpus = GeneratePaperCorpus(123);
  // Tier-1 full mesh: 7 choose 2 = 21 peerings among tier-1s.
  const auto tier1 = corpus.NetworksOfKind(NetworkKind::kTier1);
  std::size_t tier1_peerings = 0;
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      if (corpus.ArePeers(tier1[i], tier1[j])) ++tier1_peerings;
    }
  }
  EXPECT_EQ(tier1_peerings, 21u);
  // Every regional peers with at least one tier-1.
  for (const std::size_t r : corpus.NetworksOfKind(NetworkKind::kRegional)) {
    EXPECT_FALSE(corpus.PeersOf(r).empty()) << corpus.network(r).name();
  }
}

TEST(Generator, RequiredCityValidation) {
  NetworkSpec spec;
  spec.name = "bad";
  spec.pop_count = 3;
  spec.required_cities = {{"Nowhere", "ZZ"}};
  util::Rng rng(1);
  EXPECT_THROW((void)GenerateNetwork(spec, rng), InvalidArgument);
}

TEST(Generator, SatelliteSynthesisCoversShortGazetteer) {
  NetworkSpec spec;
  spec.name = "dense-ri";
  spec.pop_count = 12;  // Rhode Island has only 3 gazetteer cities
  spec.states = {"RI"};
  util::Rng rng(2);
  const Network net = GenerateNetwork(spec, rng);
  EXPECT_EQ(net.pop_count(), 12u);
  EXPECT_TRUE(net.IsConnected());
}

// ---------- serialization ----------

TEST(Serialize, RoundTripPreservesEverything) {
  const Corpus original = GeneratePaperCorpus(9);
  const std::string text = CorpusToString(original);
  const Corpus parsed = CorpusFromString(text);
  ASSERT_EQ(parsed.network_count(), original.network_count());
  EXPECT_EQ(parsed.peerings().size(), original.peerings().size());
  for (std::size_t n = 0; n < original.network_count(); ++n) {
    const Network& a = original.network(n);
    const Network& b = parsed.network(n);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.kind(), b.kind());
    ASSERT_EQ(a.pop_count(), b.pop_count());
    EXPECT_EQ(a.link_count(), b.link_count());
    for (std::size_t p = 0; p < a.pop_count(); ++p) {
      EXPECT_EQ(a.pop(p).name, b.pop(p).name);
      EXPECT_NEAR(a.pop(p).location.latitude(), b.pop(p).location.latitude(),
                  1e-5);
      EXPECT_NEAR(a.pop(p).location.longitude(), b.pop(p).location.longitude(),
                  1e-5);
    }
  }
}

TEST(Serialize, ParsesHandWrittenCorpus) {
  const std::string text = R"(# comment line
corpus v1
network Demo tier1
pop 0 29.760000 -95.370000 Houston, TX
pop 1 42.360000 -71.060000 Boston, MA
link 0 1
network Other regional
pop 0 32.300000 -90.180000 Jackson, MS
peering Demo Other
)";
  const Corpus corpus = CorpusFromString(text);
  EXPECT_EQ(corpus.network_count(), 2u);
  EXPECT_EQ(corpus.network(0).pop(0).name, "Houston, TX");
  EXPECT_TRUE(corpus.network(0).HasLink(0, 1));
  EXPECT_TRUE(corpus.ArePeers(0, 1));
}

struct BadCorpusCase {
  const char* label;
  const char* text;
};

// Without a printer gtest lists the parameter as raw bytes, i.e. the two
// string addresses, which move with address-space randomisation and would
// make the discovered ctest names differ from one build to the next.
void PrintTo(const BadCorpusCase& c, std::ostream* os) { *os << c.label; }

class SerializeErrors : public ::testing::TestWithParam<BadCorpusCase> {};

TEST_P(SerializeErrors, RejectsMalformedInput) {
  EXPECT_THROW((void)CorpusFromString(GetParam().text), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SerializeErrors,
    ::testing::Values(
        BadCorpusCase{"missing_header", "network X tier1\n"},
        BadCorpusCase{"bad_kind", "corpus v1\nnetwork X tierX\n"},
        BadCorpusCase{"pop_before_network", "corpus v1\npop 0 1 2 A\n"},
        BadCorpusCase{"pop_out_of_order",
                      "corpus v1\nnetwork X tier1\npop 1 30 -95 A\n"},
        BadCorpusCase{"bad_pop_coords",
                      "corpus v1\nnetwork X tier1\npop 0 abc -95 A\n"},
        BadCorpusCase{"link_out_of_range",
                      "corpus v1\nnetwork X tier1\npop 0 30 -95 A\nlink 0 7\n"},
        BadCorpusCase{"peering_unknown",
                      "corpus v1\nnetwork X tier1\npeering X Y\n"},
        BadCorpusCase{"unknown_keyword", "corpus v1\nwat 1 2\n"}),
    [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace riskroute::topology

// SPDX-License-Identifier: MIT
//
// Generator tests: structure, degree sequences, regularity, connectivity —
// including a parameterized invariant sweep across the whole atlas.
#include "graph/generators.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/analysis.hpp"

namespace cobra {
namespace {

TEST(Complete, StructureAndCount) {
  const Graph g = gen::complete(7);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 21u);
  EXPECT_EQ(g.regularity(), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(CompleteBipartite, DegreesSplit) {
  const Graph g = gen::complete_bipartite(3, 5);
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 5u);
  for (Vertex v = 3; v < 8; ++v) EXPECT_EQ(g.degree(v), 3u);
}

TEST(Cycle, TwoRegularConnected) {
  const Graph g = gen::cycle(11);
  EXPECT_EQ(g.regularity(), 2);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 11u);
}

TEST(Cycle, RejectsTiny) { EXPECT_THROW(gen::cycle(2), std::invalid_argument); }

TEST(Path, EndpointsDegreeOne) {
  const Graph g = gen::path(5);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Star, CenterHasFullDegree) {
  const Graph g = gen::star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (Vertex v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(BinaryTree, SizeAndLeafCount) {
  const Graph g = gen::binary_tree(4);  // 15 vertices
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  std::size_t leaves = 0;
  for (Vertex v = 0; v < 15; ++v) leaves += (g.degree(v) == 1);
  EXPECT_EQ(leaves, 8u);
}

TEST(Circulant, DegreeMatchesOffsets) {
  const Graph g = gen::circulant(12, {1, 3, 5});
  EXPECT_EQ(g.regularity(), 6);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(0, 9));  // 0 - 3 mod 12
}

TEST(Circulant, HalfOffsetGivesMatching) {
  const Graph g = gen::circulant(10, {5});
  EXPECT_EQ(g.regularity(), 1);
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(Circulant, CycleEquivalence) {
  const Graph c = gen::circulant(9, {1});
  EXPECT_EQ(c.regularity(), 2);
  EXPECT_TRUE(is_connected(c));
}

TEST(Circulant, RejectsBadOffset) {
  EXPECT_THROW(gen::circulant(10, {0}), std::invalid_argument);
  EXPECT_THROW(gen::circulant(10, {10}), std::invalid_argument);
}

TEST(Lollipop, Structure) {
  const Graph g = gen::lollipop(5, 4);
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 10u + 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(8), 1u);  // path tip
}

TEST(Barbell, Structure) {
  const Graph g = gen::barbell(4, 2);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_TRUE(is_connected(g));
  // Two K4s (6 edges each) + path edges: 3 connections for bridge=2.
  EXPECT_EQ(g.num_edges(), 6u + 6u + 3u);
}

TEST(Barbell, ZeroBridgeIsSingleEdge) {
  const Graph g = gen::barbell(3, 0);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 3u + 3u + 1u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Grid, OpenGridDegrees) {
  const Graph g = gen::grid({3, 3}, false);
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.degree(0), 2u);  // corner
  EXPECT_EQ(g.degree(4), 4u);  // center
}

TEST(Grid, TorusIsRegular) {
  const Graph g = gen::torus({4, 5});
  EXPECT_EQ(g.regularity(), 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 40u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Grid, ThreeDimensionalTorus) {
  const Graph g = gen::torus({3, 3, 3});
  EXPECT_EQ(g.regularity(), 6);
  EXPECT_EQ(g.num_vertices(), 27u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Grid, RejectsTorusSideTwo) {
  EXPECT_THROW(gen::torus({2, 4}), std::invalid_argument);
}

TEST(Grid, OneDimensionalTorusIsCycle) {
  const Graph g = gen::torus({7});
  EXPECT_EQ(g.regularity(), 2);
  EXPECT_EQ(g.num_edges(), 7u);
}

TEST(Hypercube, RegularBipartiteConnected) {
  const Graph g = gen::hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.regularity(), 4);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Hypercube, NeighboursDifferInOneBit) {
  const Graph g = gen::hypercube(5);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      EXPECT_EQ(__builtin_popcount(v ^ w), 1);
    }
  }
}

TEST(RandomRegular, ExactDegrees) {
  Rng rng(42);
  for (const std::size_t r : {3u, 4u, 8u, 16u}) {
    const Graph g = gen::random_regular(200, r, rng);
    EXPECT_EQ(g.regularity(), static_cast<int>(r)) << "r=" << r;
    EXPECT_EQ(g.num_edges(), 200 * r / 2);
  }
}

TEST(RandomRegular, LargeDegreeRepairPath) {
  Rng rng(43);
  const Graph g = gen::random_regular(128, 32, rng);
  EXPECT_EQ(g.regularity(), 32);
}

TEST(RandomRegular, VeryDenseRepairPath) {
  // Regression: the switch repair once picked a bad duplicate slot as its
  // swap partner (its key looked "good" via the twin), corrupting the edge
  // bookkeeping and yielding duplicate edges at r ~ n/4.
  Rng rng(431);
  for (int rep = 0; rep < 3; ++rep) {
    const Graph g = gen::random_regular(1024, 256, rng);
    EXPECT_EQ(g.regularity(), 256);
    EXPECT_EQ(g.num_edges(), 1024u * 256u / 2u);
  }
}

TEST(RandomRegular, FullDegreeIsComplete) {
  Rng rng(44);
  const Graph g = gen::random_regular(16, 15, rng);
  EXPECT_EQ(g.num_edges(), 120u);
}

TEST(RandomRegular, ZeroDegree) {
  Rng rng(45);
  const Graph g = gen::random_regular(10, 0, rng);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(RandomRegular, RejectsOddProduct) {
  Rng rng(46);
  EXPECT_THROW(gen::random_regular(7, 3, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_regular(5, 5, rng), std::invalid_argument);
}

TEST(RandomRegular, RejectsStubCountPastU32) {
  // Stub ids are u32: n*r >= 2^32 must be refused up front, before the
  // 32 GiB of stubs that (2^30, 8) would need is allocated.
  Rng rng(47);
  EXPECT_THROW(gen::random_regular(1ull << 30, 8, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_regular(1ull << 29, 8, rng), std::invalid_argument);
  EXPECT_THROW(gen::connected_random_regular(1ull << 30, 8, rng),
               std::invalid_argument);
}

TEST(RandomRegular, ConnectedVariantIsConnected) {
  Rng rng(47);
  for (int rep = 0; rep < 5; ++rep) {
    const Graph g = gen::connected_random_regular(100, 3, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(RandomRegular, DifferentSeedsDifferentGraphs) {
  Rng a(1);
  Rng b(2);
  const Graph ga = gen::random_regular(100, 4, a);
  const Graph gb = gen::random_regular(100, 4, b);
  bool differ = false;
  for (Vertex v = 0; v < 100 && !differ; ++v) {
    const auto na = ga.neighbors(v);
    const auto nb = gb.neighbors(v);
    differ = !std::equal(na.begin(), na.end(), nb.begin(), nb.end());
  }
  EXPECT_TRUE(differ);
}

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  Rng rng(48);
  const std::size_t n = 400;
  const double p = 0.05;
  double total = 0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<double>(gen::erdos_renyi(n, p, rng).num_edges());
  }
  const double expected = p * static_cast<double>(n * (n - 1) / 2);
  EXPECT_NEAR(total / reps, expected, expected * 0.05);
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  Rng rng(49);
  EXPECT_EQ(gen::erdos_renyi(30, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(gen::erdos_renyi(30, 1.0, rng).num_edges(), 435u);
}

TEST(ErdosRenyi, RejectsBadProbability) {
  Rng rng(50);
  EXPECT_THROW(gen::erdos_renyi(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(gen::erdos_renyi(10, 1.5, rng), std::invalid_argument);
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  Rng rng(51);
  const Graph g = gen::watts_strogatz(20, 4, 0.0, rng);
  EXPECT_EQ(g.regularity(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(WattsStrogatz, EdgeCountPreservedUnderRewiring) {
  Rng rng(52);
  const Graph g = gen::watts_strogatz(100, 6, 0.3, rng);
  EXPECT_EQ(g.num_edges(), 300u);
  EXPECT_EQ(degree_sum(g), 600u);
}

TEST(WattsStrogatz, RejectsOddK) {
  Rng rng(53);
  EXPECT_THROW(gen::watts_strogatz(10, 3, 0.1, rng), std::invalid_argument);
}

TEST(Petersen, KnownStructure) {
  const Graph g = gen::petersen();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.regularity(), 3);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.name(), "petersen");
}

TEST(GeneralizedPetersen, ThreeRegular) {
  const Graph g = gen::generalized_petersen(8, 3);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.regularity(), 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneralizedPetersen, RejectsBadStep) {
  EXPECT_THROW(gen::generalized_petersen(8, 4), std::invalid_argument);
  EXPECT_THROW(gen::generalized_petersen(8, 0), std::invalid_argument);
}

TEST(Margulis, NearEightRegularConnected) {
  const Graph g = gen::margulis(11);
  EXPECT_EQ(g.num_vertices(), 121u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 8u);
  EXPECT_GE(g.min_degree(), 3u);
}

// ---- parameterized invariant sweep over the atlas ----

struct AtlasCase {
  std::string label;
  Graph graph;
  bool expect_connected;
  bool expect_bipartite;
};

class AtlasInvariants : public ::testing::TestWithParam<AtlasCase> {};

TEST_P(AtlasInvariants, StructureHolds) {
  const auto& c = GetParam();
  const Graph& g = c.graph;
  EXPECT_EQ(is_connected(g), c.expect_connected) << c.label;
  EXPECT_EQ(is_bipartite(g), c.expect_bipartite) << c.label;
  EXPECT_EQ(degree_sum(g), 2 * g.num_edges()) << c.label;
  // Symmetry of adjacency.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(w, v)) << c.label;
      EXPECT_NE(w, v) << c.label;
    }
  }
}

std::vector<AtlasCase> atlas_cases() {
  Rng rng(1234);
  std::vector<AtlasCase> cases;
  cases.push_back({"complete_8", gen::complete(8), true, false});
  cases.push_back({"complete_2", gen::complete(2), true, true});
  cases.push_back({"bipartite_3_4", gen::complete_bipartite(3, 4), true, true});
  cases.push_back({"cycle_9", gen::cycle(9), true, false});
  cases.push_back({"cycle_8", gen::cycle(8), true, true});
  cases.push_back({"path_10", gen::path(10), true, true});
  cases.push_back({"star_6", gen::star(6), true, true});
  cases.push_back({"tree_4", gen::binary_tree(4), true, true});
  cases.push_back({"circ_12_1_2", gen::circulant(12, {1, 2}), true, false});
  cases.push_back({"lollipop", gen::lollipop(5, 3), true, false});
  cases.push_back({"barbell", gen::barbell(4, 1), true, false});
  cases.push_back({"grid_3x4", gen::grid({3, 4}, false), true, true});
  cases.push_back({"torus_3x5", gen::torus({3, 5}), true, false});
  cases.push_back({"torus_4x4", gen::torus({4, 4}), true, true});
  cases.push_back({"hypercube_3", gen::hypercube(3), true, true});
  cases.push_back({"petersen", gen::petersen(), true, false});
  cases.push_back({"gp_7_2", gen::generalized_petersen(7, 2), true, false});
  cases.push_back({"margulis_7", gen::margulis(7), true, false});
  cases.push_back(
      {"rr_64_4", gen::connected_random_regular(64, 4, rng), true, false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Atlas, AtlasInvariants, ::testing::ValuesIn(atlas_cases()),
    [](const ::testing::TestParamInfo<AtlasCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Unit tests for graph analysis: connectivity, bipartiteness, distances.
#include "graph/analysis.hpp"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rand/rng.hpp"
#include "rand/sampling.hpp"

namespace cobra {
namespace {

TEST(Connectivity, CycleIsConnected) {
  EXPECT_TRUE(is_connected(gen::cycle(17)));
  EXPECT_EQ(count_components(gen::cycle(17)), 1u);
}

TEST(Connectivity, TwoTrianglesAreTwoComponents) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(5, 3);
  const Graph g = builder.build("two_triangles");
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(count_components(g), 2u);
}

TEST(Connectivity, IsolatedVerticesCount) {
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  const Graph g = builder.build("mostly_isolated");
  EXPECT_EQ(count_components(g), 4u);
}

TEST(Connectivity, CountsComponentsLargerThanThePrefetchDistance) {
  // Disjoint random 8-regular graphs of different sizes (each past the
  // BFS's 8-slot prefetch distance) plus isolated vertices, with the
  // vertex ids shuffled so the components interleave.
  Rng rng(20261020);
  const std::vector<std::size_t> sizes{10, 64, 1000, 4096};
  constexpr std::size_t kIsolated = 7;
  std::size_t n = kIsolated;
  for (const std::size_t size : sizes) n += size;
  std::vector<Vertex> label(n);
  for (std::size_t v = 0; v < n; ++v) label[v] = static_cast<Vertex>(v);
  shuffle(std::span<Vertex>(label), rng);
  GraphBuilder builder(n);
  std::size_t first = 0;
  for (const std::size_t size : sizes) {
    const Graph part = gen::connected_random_regular(size, 8, rng);
    for (Vertex v = 0; v < size; ++v) {
      for (const Vertex w : part.neighbors(v)) {
        if (v < w) builder.add_edge(label[first + v], label[first + w]);
      }
    }
    first += size;
  }
  const Graph g = builder.build("regular_parts_and_isolates");
  EXPECT_EQ(count_components(g), sizes.size() + kIsolated);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, SingletonAndEmptyAreConnected) {
  EXPECT_TRUE(is_connected(GraphBuilder(1).build("singleton")));
  EXPECT_TRUE(is_connected(Graph()));
}

TEST(Bipartite, EvenCycleYesOddCycleNo) {
  EXPECT_TRUE(is_bipartite(gen::cycle(10)));
  EXPECT_FALSE(is_bipartite(gen::cycle(11)));
}

TEST(Bipartite, CompleteBipartiteYes) {
  EXPECT_TRUE(is_bipartite(gen::complete_bipartite(3, 4)));
}

TEST(Bipartite, CompleteGraphNo) {
  EXPECT_FALSE(is_bipartite(gen::complete(5)));
}

TEST(Bipartite, HypercubeYes) {
  EXPECT_TRUE(is_bipartite(gen::hypercube(4)));
}

TEST(Bipartite, TreesAreBipartite) {
  EXPECT_TRUE(is_bipartite(gen::binary_tree(4)));
  EXPECT_TRUE(is_bipartite(gen::path(9)));
  EXPECT_TRUE(is_bipartite(gen::star(9)));
}

TEST(Bipartite, PetersenNo) { EXPECT_FALSE(is_bipartite(gen::petersen())); }

TEST(BfsDistances, PathDistancesAreLinear) {
  const Graph g = gen::path(6);
  const auto dist = bfs_distances(g, 0);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(dist[i], i);
}

TEST(BfsDistances, UnreachableIsMax) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  const Graph g = builder.build("pair_plus_isolate");
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], SIZE_MAX);
}

TEST(Eccentricity, CycleCenterless) {
  const auto ecc = eccentricity(gen::cycle(10), 0);
  ASSERT_TRUE(ecc.has_value());
  EXPECT_EQ(*ecc, 5u);
}

TEST(Eccentricity, DisconnectedIsNullopt) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  EXPECT_FALSE(eccentricity(builder.build("disc"), 0).has_value());
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(gen::complete(8)).value(), 1u);
  EXPECT_EQ(diameter(gen::cycle(9)).value(), 4u);
  EXPECT_EQ(diameter(gen::cycle(10)).value(), 5u);
  EXPECT_EQ(diameter(gen::path(7)).value(), 6u);
  EXPECT_EQ(diameter(gen::hypercube(5)).value(), 5u);
  EXPECT_EQ(diameter(gen::petersen()).value(), 2u);
}

TEST(Diameter, TorusDiameter) {
  // 2-d torus with odd sides a, b: diameter = floor(a/2) + floor(b/2).
  EXPECT_EQ(diameter(gen::torus({5, 7})).value(), 2u + 3u);
}

TEST(DegreeSum, MatchesTwiceEdges) {
  for (const auto& g :
       {gen::complete(9), gen::cycle(12), gen::hypercube(4), gen::petersen()}) {
    EXPECT_EQ(degree_sum(g), 2 * g.num_edges()) << g.name();
  }
}

}  // namespace
}  // namespace cobra

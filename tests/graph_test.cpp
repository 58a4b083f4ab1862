// SPDX-License-Identifier: MIT
//
// Unit tests for the CSR Graph and GraphBuilder.
#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "rand/rng.hpp"

namespace cobra {
namespace {

Graph triangle() {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  return builder.build("triangle");
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.is_regular());
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.regularity(), 2);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.name(), "triangle");
}

TEST(Graph, NeighborListsAreSorted) {
  GraphBuilder builder(5);
  builder.add_edge(4, 0);
  builder.add_edge(2, 0);
  builder.add_edge(0, 3);
  builder.add_edge(0, 1);
  const Graph g = builder.build("star5");
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  for (std::size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(Graph, HasEdgeBothDirections) {
  const Graph g = triangle();
  for (Vertex u = 0; u < 3; ++u) {
    for (Vertex v = 0; v < 3; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v) << u << "," << v;
    }
  }
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = triangle();
  EXPECT_FALSE(g.has_edge(0, 7));
  EXPECT_FALSE(g.has_edge(7, 0));
}

TEST(Graph, NeighborAccessor) {
  const Graph g = triangle();
  for (Vertex v = 0; v < 3; ++v) {
    for (std::size_t i = 0; i < g.degree(v); ++i) {
      EXPECT_EQ(g.neighbor(v, i), g.neighbors(v)[i]);
    }
  }
}

TEST(Graph, IrregularDetection) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const Graph g = builder.build("path3");
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(g.regularity(), -1);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
}

// ---- storage: one shared backing, copies share the arrays ----

TEST(GraphStorage, EmptyGraphHasOneZeroOffset) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  ASSERT_EQ(g.offsets32().size(), 1u);
  EXPECT_EQ(g.offsets32()[0], 0u);
  EXPECT_TRUE(g.offsets64().empty());
  EXPECT_TRUE(g.adjacency().empty());
  EXPECT_FALSE(g.is_mapped());
}

TEST(GraphStorage, CopiesShareTheOwnedArrays) {
  Rng rng(7);
  const Graph g = gen::random_regular(64, 4, rng);
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.adjacency().data(), g.adjacency().data());
  EXPECT_EQ(copy.offsets32().data(), g.offsets32().data());
  EXPECT_EQ(copy.resident_bytes(), g.resident_bytes());
  EXPECT_EQ(copy.resident_bytes(), g.memory_bytes());
  const Graph renamed(g, "renamed");
  EXPECT_EQ(renamed.adjacency().data(), g.adjacency().data());
  EXPECT_EQ(renamed.name(), "renamed");
}

TEST(GraphStorage, AttachWeightsOnACopyLeavesTheSourceUnweighted) {
  Rng rng(8);
  const Graph g = gen::random_regular(32, 4, rng);
  Graph copy = g;
  copy.attach_weights(std::vector<float>(g.adjacency().size(), 2.0f));
  EXPECT_TRUE(copy.is_weighted());
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(copy.resident_bytes(),
            g.resident_bytes() + g.adjacency().size() * sizeof(float));
  EXPECT_THROW(g.alias_tables(), std::logic_error);
}

TEST(GraphStorage, StripWeightsSharesTheCsrAndKeepsTheSourceWeighted) {
  Rng rng(9);
  Graph g = gen::random_regular(32, 4, rng);
  g.attach_weights(std::vector<float>(g.adjacency().size(), 0.5f));
  const Graph stripped = g.strip_weights();
  EXPECT_FALSE(stripped.is_weighted());
  EXPECT_EQ(stripped.adjacency().data(), g.adjacency().data());
  EXPECT_EQ(stripped.offsets32().data(), g.offsets32().data());
  EXPECT_EQ(stripped.resident_bytes(), stripped.memory_bytes());
  ASSERT_TRUE(g.is_weighted());
  EXPECT_EQ(g.weights().size(), g.adjacency().size());
  EXPECT_EQ(g.alias_tables().prob().size(), g.adjacency().size());
}

TEST(GraphStorage, GivenDegreeRangeMatchesTheScan) {
  Rng rng(10);
  const Graph regular = gen::random_regular(40, 6, rng);
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(0, 3);
  builder.add_edge(3, 4);
  const Graph irregular = builder.build("spider");
  for (const Graph* g : {&regular, &irregular}) {
    const auto offsets = g->offsets32();
    const auto adjacency = g->adjacency();
    const Graph scanned(
        std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
        std::vector<Vertex>(adjacency.begin(), adjacency.end()), "scanned");
    const Graph given(
        std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
        std::vector<Vertex>(adjacency.begin(), adjacency.end()), "given",
        Graph::DegreeRange{g->min_degree(), g->max_degree()});
    EXPECT_EQ(scanned.min_degree(), given.min_degree()) << g->name();
    EXPECT_EQ(scanned.max_degree(), given.max_degree()) << g->name();
    EXPECT_EQ(scanned.regularity(), given.regularity()) << g->name();
  }
  EXPECT_EQ(regular.regularity(), 6);
  EXPECT_EQ(irregular.regularity(), -1);
  EXPECT_EQ(irregular.min_degree(), 1u);
  EXPECT_EQ(irregular.max_degree(), 3u);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(5, 0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicateAtBuild) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);  // same undirected edge
  EXPECT_THROW(builder.build("dup"), std::invalid_argument);
}

TEST(GraphBuilder, BuildDedupDropsDuplicates) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);
  builder.add_edge(1, 2);
  const Graph g = builder.build_dedup("dedup");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphBuilder, EdgelessGraph) {
  GraphBuilder builder(4);
  const Graph g = builder.build("isolated");
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.regularity(), 0);
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = triangle();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_edge_list(buffer, "triangle2");
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (Vertex u = 0; u < 3; ++u) {
    for (Vertex v = 0; v < 3; ++v) {
      EXPECT_EQ(back.has_edge(u, v), g.has_edge(u, v));
    }
  }
}

TEST(GraphIo, ReadRejectsMissingHeader) {
  std::stringstream buffer("0 1\n");
  EXPECT_THROW(read_edge_list(buffer), std::invalid_argument);
}

TEST(GraphIo, ReadRejectsMalformedEdge) {
  std::stringstream buffer("n 3\n0\n");
  EXPECT_THROW(read_edge_list(buffer), std::invalid_argument);
}

TEST(GraphIo, ReadRejectsOutOfRangeEndpoint) {
  std::stringstream buffer("n 2\n0 5\n");
  EXPECT_THROW(read_edge_list(buffer), std::invalid_argument);
}

TEST(GraphIo, ReadSkipsCommentsAndBlankLines) {
  std::stringstream buffer("# hello\nn 3\n\n# edge next\n0 1\n");
  const Graph g = read_edge_list(buffer);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, ReadKeepsWeightsAndInlineComments) {
  std::stringstream buffer(
      "% matrix-market style comment\n"
      "n 4\n"
      "0 1 0.5     # weighted\n"
      "1 2 2.25\n"
      "2 3 1\n");
  const Graph g = read_edge_list(buffer, "weighted");
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  // The weight column is no longer dropped: the graph is weighted and the
  // values land CSR-aligned on both half-edges.
  ASSERT_TRUE(g.is_weighted());
  EXPECT_FLOAT_EQ(g.weight(0, 0), 0.5f);   // 0 -> 1
  EXPECT_FLOAT_EQ(g.weight(2, 0), 2.25f);  // 2 -> 1 (sorted before 3)
  EXPECT_FLOAT_EQ(g.weight(2, 1), 1.0f);   // 2 -> 3
}

TEST(GraphIo, ReadRejectsMixedWeightedAndUnweightedLines) {
  // All-or-nothing: a half-weighted file would silently skew every
  // weighted draw, so the first disagreeing line errors.
  std::stringstream missing("n 4\n0 1 0.5\n1 2 2.25\n2 3\n");
  try {
    read_edge_list(missing);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing weight"), std::string::npos);
  }
  std::stringstream extra("n 4\n0 1\n1 2 2.25\n");
  EXPECT_THROW(read_edge_list(extra), std::invalid_argument);
}

TEST(GraphIo, ReadRejectsJunkAfterWeight) {
  std::stringstream buffer("n 3\n0 1 0.5 oops\n");
  try {
    read_edge_list(buffer);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, HeaderlessAndDuplicateTolerantModes) {
  // Real-world lists: no header (n inferred), both edge directions listed.
  std::stringstream buffer("0 1 0.25\n1 0 0.5\n1 2 1\n2 3 1.5\n");
  EdgeListOptions options;
  options.require_header = false;
  options.dedup = true;
  const Graph g = read_edge_list(buffer, "external", options);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  // Weighted dedup: the first occurrence's weight wins — the reverse
  // duplicate's 0.5 is dropped with its line.
  ASSERT_TRUE(g.is_weighted());
  EXPECT_FLOAT_EQ(g.weight(0, 0), 0.25f);
  EXPECT_FLOAT_EQ(g.weight(1, 0), 0.25f);
  // A header is still honoured in headerless mode (extra isolated vertex).
  std::stringstream with_header("n 6\n0 1\n");
  const Graph h = read_edge_list(with_header, "padded", options);
  EXPECT_EQ(h.num_vertices(), 6u);
  EXPECT_EQ(h.num_edges(), 1u);
}

TEST(GraphIo, WeightedRoundTrip) {
  // write_edge_list output parses back to the same graph under the
  // tolerant options (satellite round-trip guarantee).
  Rng rng(5);
  const Graph g = gen::erdos_renyi(40, 0.15, rng);
  std::stringstream buffer;
  write_edge_list(g, buffer);
  EdgeListOptions options;
  options.require_header = false;
  options.dedup = true;
  const Graph back = read_edge_list(buffer, g.name(), options);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = back.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Out-of-core substrate tests: the sharded .cgr v3 container (round trips,
// corruption/truncation rejection), zero-copy mmap loading (view
// invariants, alias tables over borrowed weights), and the streaming
// generator's byte identity against the in-core path across families,
// seeds, and thread counts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stream.hpp"
#include "graph/weights.hpp"
#include "rand/rng.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

std::string temp_path(const std::string& name) {
  return test_temp_dir() + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

::testing::AssertionResult GraphsIdentical(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) {
    return ::testing::AssertionFailure() << "vertex counts differ";
  }
  if (a.num_edges() != b.num_edges()) {
    return ::testing::AssertionFailure() << "edge counts differ";
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size() ||
        !std::equal(na.begin(), na.end(), nb.begin())) {
      return ::testing::AssertionFailure()
             << "neighbourhoods differ at vertex " << v;
    }
  }
  if (a.is_weighted() != b.is_weighted()) {
    return ::testing::AssertionFailure() << "weightedness differs";
  }
  if (a.is_weighted() &&
      !std::equal(a.weights().begin(), a.weights().end(),
                  b.weights().begin())) {
    return ::testing::AssertionFailure() << "weights differ";
  }
  return ::testing::AssertionSuccess();
}

// ---- sharded v3 container ----

TEST(ShardedCgr, RoundTripAndInfo) {
  Rng rng(21);
  const Graph g = gen::erdos_renyi(700, 0.02, rng);
  const std::string path = temp_path("v3_roundtrip.cgr");
  write_cgr(g, path, {.shards = 4});

  const std::vector<char> bytes = read_bytes(path);
  EXPECT_EQ(bytes[8], 3) << "sharded files must be version 3";

  const CgrInfo info = read_cgr_info(path);
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.n, 700u);
  EXPECT_EQ(info.endpoints, 2 * g.num_edges());
  EXPECT_EQ(info.shard_span, 175u);
  ASSERT_EQ(info.shard_endpoint_end.size(), 4u);
  EXPECT_EQ(info.shard_endpoint_end.back(), 2 * g.num_edges());
  EXPECT_EQ(info.name, g.name());
  EXPECT_EQ(info.file_bytes, bytes.size());

  const Graph back = read_cgr(path);
  EXPECT_EQ(back.name(), g.name());
  EXPECT_TRUE(GraphsIdentical(g, back));
  std::remove(path.c_str());
}

TEST(ShardedCgr, WeightedRoundTrip) {
  Rng rng(22);
  Graph g = gen::random_regular(300, 4, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 77);
  const std::string path = temp_path("v3_weighted.cgr");
  write_cgr(g, path, {.shards = 3});
  const Graph back = read_cgr(path);
  EXPECT_TRUE(back.is_weighted());
  EXPECT_TRUE(GraphsIdentical(g, back));
  std::remove(path.c_str());
}

TEST(ShardedCgr, RaggedAndDegenerateShardCounts) {
  Rng rng(23);
  const Graph g = gen::erdos_renyi(101, 0.05, rng);  // 101 % 4 != 0
  for (const std::uint64_t shards : {1ull, 4ull, 101ull, 1000ull}) {
    const std::string path = temp_path("v3_ragged.cgr");
    write_cgr(g, path, {.shards = shards});
    const CgrInfo info = read_cgr_info(path);
    // The effective count is recomputed from span = ceil(n/shards).
    const std::uint64_t span = (101 + shards - 1) / shards;
    EXPECT_EQ(info.shard_endpoint_end.size(), (101 + span - 1) / span);
    EXPECT_TRUE(GraphsIdentical(g, read_cgr(path)));
    std::remove(path.c_str());
  }
}

TEST(ShardedCgr, EmptyGraphCannotBeSharded) {
  const Graph empty = GraphBuilder(0).build("empty");
  EXPECT_THROW(write_cgr(empty, temp_path("v3_empty.cgr"), {.shards = 2}),
               std::invalid_argument);
  // But an edgeless non-empty graph can.
  const Graph lonely = GraphBuilder(5).build("lonely");
  const std::string path = temp_path("v3_lonely.cgr");
  write_cgr(lonely, path, {.shards = 2});
  EXPECT_TRUE(GraphsIdentical(lonely, read_cgr(path)));
  std::remove(path.c_str());
}

TEST(ShardedCgr, RejectsCorruptionAndTruncation) {
  Rng rng(24);
  const Graph g = gen::random_regular(128, 4, rng);
  const std::string path = temp_path("v3_victim.cgr");
  write_cgr(g, path, {.shards = 4});
  const std::vector<char> original = read_bytes(path);
  EXPECT_NO_THROW(read_cgr(path));
  EXPECT_NO_THROW(map_cgr(path));

  const std::size_t name_pad =
      ((g.name().size() + 4 + 7) & ~std::size_t{7});
  const std::size_t table_at = 32 + name_pad;

  // Corrupt shard count (table no longer matches n/span).
  {
    std::vector<char> bytes = original;
    bytes[table_at] = 3;
    const std::string bad = temp_path("v3_badcount.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    EXPECT_THROW(map_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Corrupt a shard-table entry (disagrees with the offsets array).
  {
    std::vector<char> bytes = original;
    bytes[table_at + 16] = static_cast<char>(bytes[table_at + 16] + 1);
    const std::string bad = temp_path("v3_badtable.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    EXPECT_THROW(map_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Truncate inside the adjacency section.
  {
    std::vector<char> bytes = original;
    bytes.resize(bytes.size() - 24);
    const std::string bad = temp_path("v3_trunc.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    EXPECT_THROW(map_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Truncate inside the shard table itself.
  {
    std::vector<char> bytes(original.begin(),
                            original.begin() +
                                static_cast<std::ptrdiff_t>(table_at + 20));
    const std::string bad = temp_path("v3_tabletrunc.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  std::remove(path.c_str());
}

TEST(ShardedCgr, ShardWriterValidatesThePlan) {
  // n == 0 or span == 0.
  EXPECT_THROW(
      CgrShardWriter(temp_path("plan0.cgr"), {.n = 0, .shard_span = 1}),
      std::invalid_argument);
  EXPECT_THROW(
      CgrShardWriter(temp_path("plan0.cgr"), {.n = 5, .shard_span = 0}),
      std::invalid_argument);
  // Wrong per-shard count vector length.
  EXPECT_THROW(CgrShardWriter(temp_path("plan0.cgr"),
                              {.n = 10, .shard_span = 5,
                               .shard_endpoints = {0}}),
               std::invalid_argument);
  // finish() before all shards are appended.
  {
    CgrShardWriter writer(temp_path("plan1.cgr"),
                          {.n = 4, .shard_span = 2,
                           .shard_endpoints = {0, 0}});
    EXPECT_THROW(writer.finish(), std::invalid_argument);
  }
  std::remove(temp_path("plan1.cgr").c_str());
}

// ---- zero-copy mmap loading ----

TEST(MappedGraph, ViewsAliasTheMappingNotOwnedVectors) {
  Rng rng(31);
  Graph g = gen::erdos_renyi(400, 0.03, rng);
  gen::generate_weights(g, gen::WeightKind::kUniform, 5);
  const std::string path = temp_path("mapped.cgr");
  write_cgr(g, path, {.shards = 2});

  const Graph owned = read_cgr(path);
  EXPECT_FALSE(owned.is_mapped());
  EXPECT_EQ(owned.mapped_bytes(), 0u);
  EXPECT_EQ(owned.resident_bytes(), owned.memory_bytes());

  const Graph mapped = map_cgr(path);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_EQ(mapped.mapped_bytes(), mapped.memory_bytes());
  EXPECT_EQ(mapped.name(), g.name());
  EXPECT_TRUE(GraphsIdentical(g, mapped));

  // Copies of a mapped graph share the backing and stay views.
  const Graph copy = mapped;  // NOLINT(performance-unnecessary-copy-init...)
  EXPECT_TRUE(copy.is_mapped());
  EXPECT_EQ(copy.resident_bytes(), 0u);
  EXPECT_TRUE(GraphsIdentical(mapped, copy));
  // Value accessors agree between owned and mapped instances.
  for (Vertex v = 0; v < mapped.num_vertices(); ++v) {
    ASSERT_EQ(mapped.degree(v), owned.degree(v));
  }
  EXPECT_TRUE(mapped.has_edge(mapped.adjacency()[0],
                              static_cast<Vertex>(0)) ||
              mapped.degree(0) == 0);
  std::remove(path.c_str());
}

TEST(MappedGraph, V1AndV2FilesMapToo) {
  Rng rng(32);
  Graph g = gen::random_regular(200, 3, rng);
  const std::string path = temp_path("mapped_v1.cgr");
  write_cgr(g, path);  // v1 unweighted
  {
    const Graph mapped = map_cgr(path);
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_TRUE(GraphsIdentical(g, mapped));
  }
  gen::generate_weights(g, gen::WeightKind::kExp, 9);
  write_cgr(g, path);  // v2 weighted
  {
    const Graph mapped = map_cgr(path);
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_TRUE(mapped.is_weighted());
    EXPECT_TRUE(GraphsIdentical(g, mapped));
  }
  std::remove(path.c_str());
}

TEST(MappedGraph, AliasTablesBuildLazilyOverBorrowedWeights) {
  Rng rng(33);
  Graph g = gen::random_regular(150, 5, rng);
  gen::generate_weights(g, gen::WeightKind::kUniform, 11);
  const std::string path = temp_path("mapped_alias.cgr");
  write_cgr(g, path, {.shards = 3});
  const Graph mapped = map_cgr(path);
  ASSERT_TRUE(mapped.is_weighted());
  // The alias tables are a pure function of the weights: building them
  // over the borrowed (mapped) weight view must reproduce the owned
  // graph's tables exactly.
  const GraphAliasTables& owned_tables = g.alias_tables();
  const GraphAliasTables& mapped_tables = mapped.alias_tables();
  ASSERT_EQ(owned_tables.prob().size(), mapped_tables.prob().size());
  EXPECT_TRUE(std::equal(owned_tables.prob().begin(),
                         owned_tables.prob().end(),
                         mapped_tables.prob().begin()));
  EXPECT_TRUE(std::equal(owned_tables.alias().begin(),
                         owned_tables.alias().end(),
                         mapped_tables.alias().begin()));
  // Building tables must not have faulted anything into owned storage.
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(MappedGraph, StripWeightsKeepsBorrowedCsrViews) {
  Rng rng(34);
  Graph g = gen::random_regular(100, 4, rng);
  gen::generate_weights(g, gen::WeightKind::kUniform, 3);
  const std::string path = temp_path("mapped_strip.cgr");
  write_cgr(g, path, {.shards = 2});
  const Graph mapped = map_cgr(path);
  const Graph stripped = mapped.strip_weights();
  EXPECT_TRUE(stripped.is_mapped());
  EXPECT_FALSE(stripped.is_weighted());
  EXPECT_EQ(stripped.resident_bytes(), 0u);
  EXPECT_TRUE(GraphsIdentical(g.strip_weights(), stripped));
  std::remove(path.c_str());
}

// ---- streaming generation ----

struct StreamCase {
  std::string label;
  std::function<gen::EdgeStream(Rng&)> make_stream;
  std::function<Graph(Rng&)> make_graph;
};

std::vector<StreamCase> stream_cases() {
  return {
      {"erdos_renyi",
       [](Rng& rng) { return gen::erdos_renyi_stream(3000, 0.004, rng); },
       [](Rng& rng) { return gen::erdos_renyi(3000, 0.004, rng); }},
      {"torus",
       [](Rng&) { return gen::torus_stream({50, 41}); },
       [](Rng&) { return gen::torus({50, 41}); }},
      {"hypercube",
       [](Rng&) { return gen::hypercube_stream(11); },
       [](Rng&) { return gen::hypercube(11); }},
  };
}

TEST(StreamedGeneration, ByteIdenticalToInCoreAcrossFamiliesAndSeeds) {
  for (const StreamCase& test_case : stream_cases()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const std::string in_core_path = temp_path("stream_incore.cgr");
      const std::string streamed_path = temp_path("stream_ooc.cgr");
      {
        Rng rng(seed);
        write_cgr(test_case.make_graph(rng), in_core_path, {.shards = 5});
      }
      {
        Rng rng(seed);
        const gen::EdgeStream stream = test_case.make_stream(rng);
        gen::stream_to_cgr(stream, streamed_path, {.shards = 5});
      }
      EXPECT_EQ(read_bytes(in_core_path), read_bytes(streamed_path))
          << test_case.label << " seed " << seed;
      std::remove(in_core_path.c_str());
      std::remove(streamed_path.c_str());
    }
  }
}

TEST(StreamedGeneration, ThreadCountNeverChangesTheBytes) {
  for (const StreamCase& test_case : stream_cases()) {
    std::vector<char> baseline;
    for (const std::size_t threads : {1ull, 2ull, 8ull}) {
      const std::string path = temp_path("stream_threads.cgr");
      Rng rng(99);
      const gen::EdgeStream stream = test_case.make_stream(rng);
      gen::stream_to_cgr(stream, path, {.shards = 7, .threads = threads});
      const std::vector<char> bytes = read_bytes(path);
      if (baseline.empty()) {
        baseline = bytes;
      } else {
        EXPECT_EQ(baseline, bytes)
            << test_case.label << " with " << threads << " threads";
      }
      std::remove(path.c_str());
    }
  }
}

TEST(StreamedGeneration, WeightedStreamMatchesInCoreWeighting) {
  const std::string in_core_path = temp_path("streamw_incore.cgr");
  const std::string streamed_path = temp_path("streamw_ooc.cgr");
  {
    Rng rng(5);
    Graph g = gen::erdos_renyi(2000, 0.005, rng);
    gen::generate_weights(g, gen::WeightKind::kExp, 123);
    write_cgr(g, in_core_path, {.shards = 3});
  }
  {
    Rng rng(5);
    const gen::EdgeStream stream = gen::erdos_renyi_stream(2000, 0.005, rng);
    gen::stream_to_cgr(stream, streamed_path,
                       {.shards = 3,
                        .weights = gen::WeightKind::kExp,
                        .weight_seed = 123});
  }
  EXPECT_EQ(read_bytes(in_core_path), read_bytes(streamed_path));
  std::remove(in_core_path.c_str());
  std::remove(streamed_path.c_str());
}

TEST(StreamedGeneration, BudgetDerivedShardingStaysLoadable) {
  const std::string path = temp_path("stream_budget.cgr");
  Rng rng(77);
  const gen::EdgeStream stream = gen::erdos_renyi_stream(20000, 0.002, rng);
  // 4 MiB floor forces multiple shards for this ~400k-endpoint instance.
  const gen::StreamToCgrStats stats =
      gen::stream_to_cgr(stream, path, {.mem_budget = 1});
  EXPECT_GE(stats.shards, 1u);
  EXPECT_EQ(stats.shard_span, (20000 + stats.shards - 1) / stats.shards);
  const Graph streamed = read_cgr(path);
  Rng oracle_rng(77);
  const Graph oracle = gen::erdos_renyi(20000, 0.002, oracle_rng);
  EXPECT_TRUE(GraphsIdentical(oracle, streamed));
  EXPECT_EQ(stats.edges, oracle.num_edges());
  EXPECT_GT(stats.spill_bytes, 0u);
  std::remove(path.c_str());
}

TEST(StreamedGeneration, RejectsInvalidStreams) {
  gen::EdgeStream bad;
  bad.name = "bad";
  bad.n = 0;
  EXPECT_THROW(gen::stream_to_cgr(bad, temp_path("bad.cgr")),
               std::invalid_argument);

  // Self-loop and duplicate edges are rejected during assembly.
  gen::EdgeStream loop;
  loop.name = "loop";
  loop.n = 4;
  loop.count = 1;
  loop.emit = [](std::uint64_t, std::uint64_t,
                 std::vector<std::pair<Vertex, Vertex>>& out) {
    out.emplace_back(2, 2);
  };
  EXPECT_THROW(gen::stream_to_cgr(loop, temp_path("bad.cgr")),
               std::invalid_argument);

  gen::EdgeStream dup;
  dup.name = "dup";
  dup.n = 4;
  dup.count = 1;
  dup.emit = [](std::uint64_t, std::uint64_t,
                std::vector<std::pair<Vertex, Vertex>>& out) {
    out.emplace_back(0, 1);
    out.emplace_back(1, 0);
  };
  EXPECT_THROW(gen::stream_to_cgr(dup, temp_path("bad.cgr")),
               std::invalid_argument);
  std::remove(temp_path("bad.cgr").c_str());
}

TEST(StreamedGeneration, InCoreErdosRenyiIsAPureFunctionOfTheSeed) {
  // The in-core generators run on the stream factories; ER keeps its
  // chunk contract. The lattices' bytes are golden digests.
  Rng a(3), b(3);
  EXPECT_TRUE(
      GraphsIdentical(gen::erdos_renyi(500, 0.02, a),
                      gen::erdos_renyi(500, 0.02, b)));
}

}  // namespace
}  // namespace cobra

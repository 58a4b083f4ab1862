// SPDX-License-Identifier: MIT
//
// Tests for the scalable graph substrate: width-adaptive CSR invariants,
// the bucketized parallel assembly (vs test-local neighbour sets),
// deterministic parallel generators (thread-count independence; the
// golden .cgr digests pin their bytes), random_regular against a
// test-local exact-uniform oracle (including a bound on the switch
// repair's bias), and the binary .cgr format (round trips and
// corrupt-file rejection).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "rand/rng.hpp"
#include "rand/sampling.hpp"
#include "stats/chi_square.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

/// Structural equality: same vertex count and identical sorted
/// neighbourhoods (offset representation may differ in width).
::testing::AssertionResult GraphsIdentical(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) {
    return ::testing::AssertionFailure()
           << "vertex counts differ: " << a.num_vertices() << " vs "
           << b.num_vertices();
  }
  if (a.num_edges() != b.num_edges()) {
    return ::testing::AssertionFailure()
           << "edge counts differ: " << a.num_edges() << " vs "
           << b.num_edges();
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
  return ::testing::AssertionSuccess();
}

void ExpectCsrInvariants(const Graph& g) {
  // Offset monotonicity, bracketed by [0, 2m].
  ASSERT_EQ(g.offset(0), 0u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(g.offset(v), g.offset(v + 1));
  }
  EXPECT_EQ(g.offset(static_cast<Vertex>(g.num_vertices())),
            g.adjacency().size());
  // Strictly sorted (no duplicates), loop-free, in-range neighbourhoods.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i], g.num_vertices());
      EXPECT_NE(nbrs[i], v);
      if (i > 0) EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
  }
}

/// Restores the default build parallelism when a test ends.
struct ThreadGuard {
  ~ThreadGuard() { GraphBuilder::set_default_threads(0); }
};

std::string temp_path(const std::string& name) {
  return test_temp_dir() + name;
}

/// Exactly uniform random r-regular graph: Fisher-Yates configuration-model
/// pairings, redrawn until simple with no attempt budget. Cheap at the
/// small n the distributional tests use.
Graph exact_random_regular(std::size_t n, std::size_t r, Rng& rng) {
  std::vector<Vertex> stubs(n * r);
  std::vector<char> present(n * n);
  while (true) {
    for (std::size_t i = 0; i < stubs.size(); ++i) {
      stubs[i] = static_cast<Vertex>(i / r);
    }
    shuffle(std::span<Vertex>(stubs), rng);
    std::fill(present.begin(), present.end(), 0);
    bool simple = true;
    for (std::size_t i = 0; simple && i < stubs.size(); i += 2) {
      const Vertex u = stubs[i];
      const Vertex v = stubs[i + 1];
      simple = u != v && !present[u * n + v];
      present[u * n + v] = present[v * n + u] = 1;
    }
    if (!simple) continue;
    GraphBuilder builder(n);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      builder.add_edge(stubs[i], stubs[i + 1]);
    }
    return builder.build("exact_random_regular");
  }
}

std::size_t count_triangles(const Graph& g) {
  std::size_t triangles = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (v < nbrs[i] && g.has_edge(nbrs[i], nbrs[j])) ++triangles;
      }
    }
  }
  return triangles;
}

/// Triangle-count laws of gen::random_regular and the exact oracle, with
/// their two-sample chi-square (categories pooled until each holds at
/// least 20 samples of the two sides together) and total variation.
struct TriangleLaws {
  double chi2 = 0.0;
  std::size_t dof = 0;
  double tv = 0.0;
  double sampler_mean = 0.0;
  double oracle_mean = 0.0;
};

TriangleLaws triangle_laws(std::size_t n, std::size_t r, int samples,
                           std::uint64_t sampler_seed,
                           std::uint64_t oracle_seed) {
  std::vector<double> sampler(64, 0.0);
  std::vector<double> oracle(64, 0.0);
  Rng sampler_rng(sampler_seed);
  Rng oracle_rng(oracle_seed);
  TriangleLaws laws;
  for (int i = 0; i < samples; ++i) {
    const std::size_t a =
        count_triangles(gen::random_regular(n, r, sampler_rng));
    const std::size_t b =
        count_triangles(exact_random_regular(n, r, oracle_rng));
    ++sampler[std::min<std::size_t>(a, 63)];
    ++oracle[std::min<std::size_t>(b, 63)];
    laws.sampler_mean += static_cast<double>(a) / samples;
    laws.oracle_mean += static_cast<double>(b) / samples;
  }
  double pooled_a = 0.0;
  double pooled_b = 0.0;
  std::size_t bins = 0;
  for (std::size_t t = 0; t < sampler.size(); ++t) {
    laws.tv += std::abs(sampler[t] - oracle[t]) / (2.0 * samples);
    pooled_a += sampler[t];
    pooled_b += oracle[t];
    if (pooled_a + pooled_b < 20.0 && t + 1 < sampler.size()) continue;
    if (pooled_a + pooled_b > 0.0) {
      laws.chi2 += (pooled_a - pooled_b) * (pooled_a - pooled_b) /
                   (pooled_a + pooled_b);
      ++bins;
    }
    pooled_a = pooled_b = 0.0;
  }
  laws.dof = bins > 1 ? bins - 1 : 1;
  return laws;
}

// ---- width-adaptive offsets ----

TEST(CompactCsr, WidthSelectionBoundary) {
  // The 32/64-bit selection is a pure function of 2m; the boundary sits
  // exactly at 2^32 endpoints (16 GiB of adjacency — exercised via the
  // predicate, not a real allocation).
  EXPECT_TRUE(csr_offsets_fit_32bit(0));
  EXPECT_TRUE(csr_offsets_fit_32bit((1ull << 32) - 1));
  EXPECT_TRUE(csr_offsets_fit_32bit(1ull << 32) ==
              false);  // first wide value
  EXPECT_FALSE(csr_offsets_fit_32bit((1ull << 32) + 1));
}

TEST(CompactCsr, SmallGraphsUseNarrowOffsets) {
  Rng rng(3);
  const Graph g = gen::random_regular(512, 8, rng);
  EXPECT_FALSE(g.offsets_are_wide());
  EXPECT_EQ(g.offset_bytes(), 4u);
  EXPECT_EQ(g.offsets32().size(), g.num_vertices() + 1);
  EXPECT_TRUE(g.offsets64().empty());
  EXPECT_EQ(g.memory_bytes(),
            (g.num_vertices() + 1) * 4 + g.adjacency().size() * 4);
}

TEST(CompactCsr, SizeTConstructorNarrows) {
  // The legacy-style constructor narrows transparently when 2m < 2^32.
  std::vector<std::size_t> offsets{0, 1, 2};
  std::vector<Vertex> adjacency{1, 0};
  const Graph g(std::move(offsets), std::move(adjacency), "edge");
  EXPECT_FALSE(g.offsets_are_wide());
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

// ---- parallel assembly ----

/// The reference for build_dedup: every vertex's neighbour set, built
/// from the edge list with duplicates dropped.
::testing::AssertionResult HasNeighbourSets(
    const Graph& g, std::size_t n,
    const std::vector<std::pair<Vertex, Vertex>>& edges) {
  std::vector<std::set<Vertex>> sets(n);
  for (const auto& [u, v] : edges) {
    sets[u].insert(v);
    sets[v].insert(u);
  }
  if (g.num_vertices() != n) {
    return ::testing::AssertionFailure() << g.num_vertices() << " vertices";
  }
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    if (!std::equal(nbrs.begin(), nbrs.end(), sets[v].begin(),
                    sets[v].end())) {
      return ::testing::AssertionFailure()
             << "neighbourhoods differ at vertex " << v;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelBuild, DedupMatchesNeighbourSetsOfRandomEdgeSets) {
  ThreadGuard guard;
  GraphBuilder::set_default_threads(4);
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    Rng rng(seed);
    const std::size_t n = 2000;
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (std::size_t i = 0; i < 6000; ++i) {
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const auto v = static_cast<Vertex>(rng.next_below(n));
      if (u != v) edges.emplace_back(u, v);
    }
    GraphBuilder builder(n);
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    const Graph g = builder.build_dedup("p");
    EXPECT_TRUE(HasNeighbourSets(g, n, edges));
    ExpectCsrInvariants(g);
  }
}

/// build()'s message for the queued edges, or "" if it does not throw.
std::string build_error(GraphBuilder& builder) {
  try {
    builder.build("dup");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelBuild, DuplicateThrowNamesTheSmallestDuplicate) {
  ThreadGuard guard;
  GraphBuilder one(12);
  one.add_edge(5, 9);
  one.add_edge(2, 3);
  one.add_edge(9, 5);  // duplicate of {5,9}
  one.add_edge(1, 7);
  EXPECT_EQ(build_error(one), "duplicate edge {5,9} in graph 'dup'");
  // Two duplicates on a ring past the parallel threshold: the
  // (min, max)-smallest is named, not the first queued.
  GraphBuilder::set_default_threads(4);
  const Vertex n = 100000;
  GraphBuilder two(n);
  for (Vertex v = 0; v < n; ++v) two.add_edge(v, (v + 1) % n);
  two.add_edge(70001, 70000);
  two.add_edge(6, 5);
  EXPECT_EQ(build_error(two), "duplicate edge {5,6} in graph 'dup'");
}

TEST(ParallelBuild, AddEdgesChunkedValidatesAndKeepsEmitOrderSemantics) {
  ThreadGuard guard;
  // Validation: the first offending emitted edge is reported.
  GraphBuilder bad(8);
  EXPECT_THROW(
      bad.add_edges_chunked(4,
                            [](std::size_t begin, std::size_t end,
                               std::vector<std::pair<Vertex, Vertex>>& out) {
                              for (std::size_t i = begin; i < end; ++i) {
                                out.emplace_back(static_cast<Vertex>(i),
                                                 static_cast<Vertex>(i));
                              }
                            }),
      std::invalid_argument);
  // Equivalence with serial add_edge under any thread count.
  const auto emit = [](std::size_t begin, std::size_t end,
                       std::vector<std::pair<Vertex, Vertex>>& out) {
    for (std::size_t i = begin; i < end; ++i) {
      out.emplace_back(static_cast<Vertex>(i),
                       static_cast<Vertex>((i + 1) % 100000));
    }
  };
  GraphBuilder::set_default_threads(8);
  GraphBuilder chunked(100000);
  chunked.add_edges_chunked(100000, emit);
  const Graph a = chunked.build("ring");
  GraphBuilder::set_default_threads(1);
  GraphBuilder plain(100000);
  for (std::size_t i = 0; i < 100000; ++i) {
    plain.add_edge(static_cast<Vertex>(i),
                   static_cast<Vertex>((i + 1) % 100000));
  }
  const Graph b = plain.build("ring");
  EXPECT_TRUE(GraphsIdentical(a, b));
}

// ---- the per-vertex neighbour sort ----

/// detail::sort_neighbour_list must leave `list` in std::sort's order and
/// report a duplicate exactly when std::adjacent_find finds one.
::testing::AssertionResult SortsLikeStdSort(std::vector<Vertex> list) {
  std::vector<Vertex> expected = list;
  std::sort(expected.begin(), expected.end());
  const bool expected_dup =
      std::adjacent_find(expected.begin(), expected.end()) != expected.end();
  const bool dup =
      detail::sort_neighbour_list(list.data(), list.data() + list.size());
  if (list != expected) {
    return ::testing::AssertionFailure()
           << "order differs at length " << list.size();
  }
  if (dup != expected_dup) {
    return ::testing::AssertionFailure()
           << "duplicate flag " << dup << " at length " << list.size();
  }
  return ::testing::AssertionSuccess();
}

TEST(SortNeighbourList, MatchesStdSortAtEveryLengthUpTo40) {
  // Covers the sorting networks (2..8), insertion sort (9..32) and
  // std::sort (33..40), with values up to 0xFFFFFFFE, one below the ~0
  // the networks pad short lists with.
  constexpr std::uint64_t kValues = 0xFFFFFFFFull;  // draws in [0, 2^32 - 2]
  Rng rng(20261020);
  for (std::size_t len = 0; len <= 40; ++len) {
    std::vector<Vertex> list(len);
    for (int rep = 0; rep < 64; ++rep) {
      // Values over the whole range, and few distinct values (many
      // duplicates) at the bottom or at the top of the range.
      const std::uint64_t range = rep % 2 == 0 ? kValues : 1 + len / 3;
      const std::uint64_t base = rep % 4 < 2 ? 0 : kValues - range;
      for (Vertex& x : list) {
        x = static_cast<Vertex>(base + rng.next_below(range));
      }
      ASSERT_TRUE(SortsLikeStdSort(list)) << "rep " << rep;
    }
    // A duplicate at every adjacent position of the sorted output: strictly
    // increasing values with pair (i, i+1) made equal, then shuffled.
    for (std::size_t i = 0; i + 1 < len; ++i) {
      Vertex next = 0;
      for (Vertex& x : list) {
        next += 1 + static_cast<Vertex>(rng.next_below(1u << 20));
        x = next;
      }
      for (Vertex& x : list) x += static_cast<Vertex>(kValues - 1 - next);
      list[i + 1] = list[i];
      shuffle(std::span<Vertex>(list), rng);
      ASSERT_TRUE(SortsLikeStdSort(list)) << "duplicate at " << i;
    }
    // Zero-one principle: a compare-exchange network that sorts every 0/1
    // input sorts every input. Exhaustive over the network lengths, with
    // 1 mapped to the largest vertex id.
    if (len <= 8) {
      for (std::uint32_t bits = 0; bits < (1u << len); ++bits) {
        for (std::size_t j = 0; j < len; ++j) {
          list[j] = (bits >> j & 1) != 0 ? 0xFFFFFFFEu : 0u;
        }
        ASSERT_TRUE(SortsLikeStdSort(list)) << "bits " << bits;
      }
    }
  }
}

// ---- generator parity vs exact oracles ----

TEST(GeneratorParity, RandomRegularDegreeSequenceExact) {
  // Vertex v owns slots [v*r, (v+1)*r) of the sampler's CSR, and every
  // switch of the repair trades one neighbour for another, so any
  // miscount here means a pairing or a switch lost or duplicated a stub.
  for (const std::uint64_t seed : {1ull, 42ull, 20260729ull}) {
    Rng rng(seed);
    const Graph g = gen::random_regular(1024, 8, rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(g.degree(v), 8u) << "v=" << v << " seed=" << seed;
    }
    ExpectCsrInvariants(g);
  }
  for (const std::size_t r : {3ull, 4ull, 5ull}) {
    Rng rng(77 + r);
    const Graph g = gen::random_regular(8192, r, rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(g.degree(v), r) << "v=" << v << " r=" << r;
    }
    ExpectCsrInvariants(g);
  }
}

TEST(GeneratorParity, RandomRegularDistributionalOracle) {
  // r = 2 is rejection-sampled, so it must match the exact oracle: on
  // 2-regular graphs over 8 vertices, vertex 0's neighbour pair hits each
  // of the C(7,2) = 21 categories with the same frequency under both.
  // Two-sample chi-square with df = 20; the 60.0 bound is ~p = 1e-5 and
  // the seeds are fixed, so this is deterministic, not flaky.
  constexpr int kSamples = 2000;
  std::array<int, 64> sampler_counts{};
  std::array<int, 64> oracle_counts{};
  Rng sampler_rng(2026);
  Rng oracle_rng(909);
  const auto category = [](const Graph& g) {
    const auto nbrs = g.neighbors(0);  // canonical CSR: sorted, so a < b
    return static_cast<std::size_t>(nbrs[0]) * 8 + nbrs[1];
  };
  for (int i = 0; i < kSamples; ++i) {
    ++sampler_counts[category(gen::random_regular(8, 2, sampler_rng))];
    ++oracle_counts[category(exact_random_regular(8, 2, oracle_rng))];
  }
  double chi2 = 0.0;
  int categories = 0;
  for (std::size_t c = 0; c < sampler_counts.size(); ++c) {
    const double a = sampler_counts[c];
    const double b = oracle_counts[c];
    if (a + b == 0.0) continue;
    ++categories;
    chi2 += (a - b) * (a - b) / (a + b);
  }
  EXPECT_EQ(categories, 21);
  EXPECT_LT(chi2, 60.0);
}

TEST(GeneratorParity, RandomRegularTriangleLawExactAtR3) {
  // r = 3 is rejection-sampled too: the triangle-count law on 3-regular
  // graphs over 12 vertices must pass a two-sample chi-square against the
  // exact oracle. Fixed seeds, so the p > 1e-4 check is deterministic.
  const TriangleLaws laws = triangle_laws(12, 3, 20000, 31, 32);
  EXPECT_GT(chi_square_tail(laws.chi2, laws.dof), 1e-4)
      << "chi2=" << laws.chi2 << " dof=" << laws.dof << " tv=" << laws.tv;
}

TEST(GeneratorParity, RandomRegularRepairBiasBoundedAtR4) {
  // r >= 4 is switch-repaired, which is only approximately uniform. The
  // bias is largest at small n: the bound is the documented claim in
  // generators.hpp, total variation 0.06 between the triangle-count laws
  // of the sampler and the exact oracle on 4-regular graphs over 12
  // vertices. 20000 samples a side put about 0.005 of noise on the
  // estimate; this seed pair reads 0.049.
  const TriangleLaws laws = triangle_laws(12, 4, 20000, 41, 42);
  EXPECT_LT(laws.tv, 0.06) << "tv " << laws.tv << ", mean triangles "
                           << laws.sampler_mean << " vs exact "
                           << laws.oracle_mean;
}

TEST(GeneratorParity, ErdosRenyiDistributionalOracle) {
  // The chunked G(n,p) sampler draws per-chunk streams, so the oracle is
  // distributional: the mean edge count against p * C(n, 2), plus exact
  // extremes.
  ThreadGuard guard;
  GraphBuilder::set_default_threads(4);
  const std::size_t n = 4096;
  const double p = 8.0 / static_cast<double>(n);
  double total = 0;
  const int reps = 12;
  for (int i = 0; i < reps; ++i) {
    Rng rng(100 + i);
    total += static_cast<double>(gen::erdos_renyi(n, p, rng).num_edges());
  }
  const double expected = p * static_cast<double>(n) *
                          static_cast<double>(n - 1) / 2.0;
  EXPECT_NEAR(total / reps, expected, expected * 0.05);
  Rng rng(7);
  EXPECT_EQ(gen::erdos_renyi(32, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(gen::erdos_renyi(32, 1.0, rng).num_edges(), 32u * 31 / 2);
}

// ---- thread-count independence ----

TEST(GeneratorDeterminism, IdenticalAcross1And2And8Threads) {
  ThreadGuard guard;
  const auto build_all = [](std::size_t threads) {
    GraphBuilder::set_default_threads(threads);
    std::vector<Graph> graphs;
    Rng r1(5);
    // random_regular never reads the thread setting; the row pins that.
    graphs.push_back(gen::random_regular(8192, 8, r1));
    Rng r2(6);
    graphs.push_back(gen::erdos_renyi(60000, 8.0 / 60000.0, r2));
    graphs.push_back(gen::torus({48, 48}));
    graphs.push_back(gen::hypercube(12));
    return graphs;
  };
  const auto base = build_all(1);
  for (const std::size_t threads : {2ull, 8ull}) {
    const auto other = build_all(threads);
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_TRUE(GraphsIdentical(base[i], other[i]))
          << "graph " << i << " with " << threads << " threads";
    }
  }
}

// ---- binary .cgr format ----

TEST(BinaryFormat, RoundTripPreservesStructureAndName) {
  Rng rng(9);
  const Graph g = gen::erdos_renyi(500, 0.02, rng);
  const std::string path = temp_path("roundtrip.cgr");
  write_cgr(g, path);
  EXPECT_TRUE(is_cgr_file(path));
  const Graph back = read_cgr(path);
  EXPECT_EQ(back.name(), g.name());
  EXPECT_TRUE(GraphsIdentical(g, back));
  EXPECT_EQ(back.offsets_are_wide(), g.offsets_are_wide());
  // Name override.
  const Graph renamed = read_cgr(path, "renamed");
  EXPECT_EQ(renamed.name(), "renamed");
  std::remove(path.c_str());
}

TEST(BinaryFormat, RoundTripEmptyAndIrregular) {
  const std::string path = temp_path("tiny.cgr");
  {
    GraphBuilder builder(5);
    builder.add_edge(0, 4);
    const Graph g = builder.build("tiny");
    write_cgr(g, path);
    EXPECT_TRUE(GraphsIdentical(g, read_cgr(path)));
  }
  {
    const Graph empty = GraphBuilder(0).build("empty");
    write_cgr(empty, path);
    const Graph back = read_cgr(path);
    EXPECT_EQ(back.num_vertices(), 0u);
    EXPECT_EQ(back.num_edges(), 0u);
  }
  std::remove(path.c_str());
}

TEST(BinaryFormat, RejectsBadMagicTruncationAndCorruption) {
  Rng rng(10);
  const Graph g = gen::random_regular(64, 4, rng);
  const std::string path = temp_path("victim.cgr");
  write_cgr(g, path);

  // Baseline loads fine.
  EXPECT_NO_THROW(read_cgr(path));

  const auto read_bytes = [&path]() {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const auto write_bytes = [](const std::string& p,
                              const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::vector<char> original = read_bytes();

  // Bad magic.
  {
    std::vector<char> bytes = original;
    bytes[0] = 'X';
    const std::string bad = temp_path("bad_magic.cgr");
    write_bytes(bad, bytes);
    EXPECT_FALSE(is_cgr_file(bad));
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Unsupported version.
  {
    std::vector<char> bytes = original;
    bytes[8] = 99;
    const std::string bad = temp_path("bad_version.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Truncation (drop the tail).
  {
    std::vector<char> bytes = original;
    bytes.resize(bytes.size() - 16);
    const std::string bad = temp_path("truncated.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Header truncation (shorter than the fixed fields).
  {
    std::vector<char> bytes(original.begin(), original.begin() + 20);
    const std::string bad = temp_path("stub.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  // Corrupt adjacency (out-of-range neighbour) — flip the last entry.
  {
    std::vector<char> bytes = original;
    const std::size_t last_entry = bytes.size() - 4;
    bytes[last_entry] = static_cast<char>(0xFF);
    bytes[last_entry + 1] = static_cast<char>(0xFF);
    bytes[last_entry + 2] = static_cast<char>(0xFF);
    bytes[last_entry + 3] = static_cast<char>(0x7F);
    const std::string bad = temp_path("corrupt_adj.cgr");
    write_bytes(bad, bytes);
    EXPECT_THROW(read_cgr(bad), std::invalid_argument);
    std::remove(bad.c_str());
  }
  std::remove(path.c_str());
}

TEST(BinaryFormat, MissingFileThrows) {
  EXPECT_THROW(read_cgr(temp_path("does_not_exist.cgr")),
               std::invalid_argument);
  EXPECT_FALSE(is_cgr_file(temp_path("does_not_exist.cgr")));
}

}  // namespace
}  // namespace cobra

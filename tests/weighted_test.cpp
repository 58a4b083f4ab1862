// SPDX-License-Identifier: MIT
//
// Weighted graph substrate tests: the CSR weight array, the edge-list
// reader's weight column, the .cgr v2 container (v1 compatibility,
// round-trips, corruption rejection), the per-vertex Vose alias tables
// (exact table probabilities + chi-square on the actual draw path, on two
// graph families), the deterministic weight generators, and the weighted
// process variants (including the weighted=false parity guarantee).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cobra.hpp"
#include "core/process_factory.hpp"
#include "core/sis.hpp"
#include "protocols/branching_walk.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/weights.hpp"
#include "rand/alias.hpp"
#include "rand/rng.hpp"
#include "scenario/registry.hpp"
#include "stats/chi_square.hpp"
#include "test_support.hpp"

namespace {

using namespace cobra;

Graph weighted_path4() {
  std::stringstream buffer("n 4\n0 1 0.5\n1 2 2\n2 3 4\n");
  return read_edge_list(buffer, "wpath4");
}

bool same_structure(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

// ---- Graph weight array ----

TEST(GraphWeights, AttachValidatesSizeAndPositivity) {
  Rng rng(1);
  Graph g = gen::random_regular(32, 4, rng);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_THROW(g.attach_weights(std::vector<float>(5, 1.0f)),
               std::invalid_argument);
  std::vector<float> bad(g.adjacency().size(), 1.0f);
  bad[7] = 0.0f;
  EXPECT_THROW(g.attach_weights(bad), std::invalid_argument);
  bad[7] = -2.0f;
  EXPECT_THROW(g.attach_weights(bad), std::invalid_argument);
  bad[7] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(g.attach_weights(bad), std::invalid_argument);
  bad[7] = 1.0f;
  const std::size_t before = g.memory_bytes();
  g.attach_weights(bad);
  EXPECT_TRUE(g.is_weighted());
  // Weights add exactly 8m bytes (one float per half-edge).
  EXPECT_EQ(g.memory_bytes(), before + g.adjacency().size() * sizeof(float));
}

TEST(GraphWeights, StripWeightsDropsArrayKeepsStructure) {
  Graph g = weighted_path4();
  ASSERT_TRUE(g.is_weighted());
  const Graph stripped = g.strip_weights();
  EXPECT_FALSE(stripped.is_weighted());
  EXPECT_TRUE(same_structure(g, stripped));
  EXPECT_EQ(stripped.name(), g.name());
}

TEST(GraphWeights, AliasTablesRequireWeights) {
  Rng rng(2);
  const Graph g = gen::random_regular(16, 4, rng);
  EXPECT_THROW(g.alias_tables(), std::logic_error);
}

// ---- edge-list reader ----

TEST(EdgeListWeights, RejectsNegativeZeroAndNanWeights) {
  for (const char* bad : {"n 3\n0 1 -1\n", "n 3\n0 1 0\n", "n 3\n0 1 nan\n",
                          "n 3\n0 1 inf\n", "n 3\n0 1 1e-60\n"}) {
    std::stringstream buffer(bad);
    EXPECT_THROW(read_edge_list(buffer), std::invalid_argument) << bad;
  }
}

TEST(EdgeListWeights, HeaderlessWeightedFile) {
  std::stringstream buffer("# tool dump\n0 1 0.25\n1 2 1.5\n");
  EdgeListOptions options;
  options.require_header = false;
  const Graph g = read_edge_list(buffer, "headerless", options);
  EXPECT_EQ(g.num_vertices(), 3u);
  ASSERT_TRUE(g.is_weighted());
  EXPECT_FLOAT_EQ(g.weight(1, 0), 0.25f);
  EXPECT_FLOAT_EQ(g.weight(1, 1), 1.5f);
}

TEST(EdgeListWeights, DedupFirstWeightWins) {
  // Exact and reverse duplicates: the first line's weight is kept.
  std::stringstream buffer("n 3\n0 1 0.75\n1 0 9\n0 1 5\n1 2 2\n");
  EdgeListOptions options;
  options.dedup = true;
  const Graph g = read_edge_list(buffer, "dedup", options);
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_TRUE(g.is_weighted());
  EXPECT_FLOAT_EQ(g.weight(0, 0), 0.75f);
  EXPECT_FLOAT_EQ(g.weight(1, 0), 0.75f);
  EXPECT_FLOAT_EQ(g.weight(2, 0), 2.0f);
}

TEST(EdgeListWeights, WriteReadRoundTripPreservesWeights) {
  Graph g = weighted_path4();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_edge_list(buffer, "back");
  ASSERT_TRUE(back.is_weighted());
  ASSERT_TRUE(same_structure(g, back));
  for (std::size_t i = 0; i < g.weights().size(); ++i) {
    EXPECT_EQ(g.weights()[i], back.weights()[i]) << "slot " << i;
  }
}

// ---- .cgr v2 ----

class CgrWeightsTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return test_temp_dir() + "weighted_cgr_" + name + ".cgr";
  }
};

TEST_F(CgrWeightsTest, V2RoundTripPreservesWeights) {
  Rng rng(3);
  Graph g = gen::random_regular(64, 6, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 99);
  const std::string file = path("roundtrip");
  write_cgr(g, file);
  const Graph back = read_cgr(file);
  ASSERT_TRUE(back.is_weighted());
  ASSERT_TRUE(same_structure(g, back));
  for (std::size_t i = 0; i < g.weights().size(); ++i) {
    ASSERT_EQ(g.weights()[i], back.weights()[i]) << "slot " << i;
  }
  std::remove(file.c_str());
}

TEST_F(CgrWeightsTest, UnweightedWritesVersion1AndStillLoads) {
  Rng rng(4);
  const Graph g = gen::random_regular(32, 4, rng);
  const std::string file = path("v1");
  write_cgr(g, file);
  // Byte 8..11 is the version: unweighted graphs must stay v1 so existing
  // files and byte-compares keep working.
  std::ifstream in(file, std::ios::binary);
  in.seekg(8);
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), 4);
  EXPECT_EQ(version, 1u);
  const Graph back = read_cgr(file);
  EXPECT_FALSE(back.is_weighted());
  EXPECT_TRUE(same_structure(g, back));
  std::remove(file.c_str());
}

TEST_F(CgrWeightsTest, StrippedWeightedGraphMatchesUnweightedBytes) {
  Rng rng(5);
  const Graph base = gen::random_regular(48, 4, rng);
  Graph weighted(base, base.name());
  gen::generate_weights(weighted, gen::WeightKind::kUniform, 7);
  const std::string unweighted_file = path("base");
  const std::string stripped_file = path("stripped");
  write_cgr(base, unweighted_file);
  write_cgr(weighted.strip_weights(), stripped_file);
  std::ifstream a(unweighted_file, std::ios::binary);
  std::ifstream b(stripped_file, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(unweighted_file.c_str());
  std::remove(stripped_file.c_str());
}

TEST_F(CgrWeightsTest, TruncatedAndCorruptV2Rejected) {
  Graph g = weighted_path4();
  const std::string file = path("corrupt");
  write_cgr(g, file);

  // Truncation: drop the last 4 bytes (half the weight section's tail).
  std::ifstream in(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 4));
  }
  EXPECT_THROW(read_cgr(file), std::invalid_argument);

  // Corruption: patch a weight to -1.0f (weights are the trailing 2m
  // floats).
  {
    std::string patched = bytes;
    const float bad = -1.0f;
    std::memcpy(patched.data() + patched.size() - sizeof(float), &bad,
                sizeof(float));
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  }
  EXPECT_THROW(read_cgr(file), std::invalid_argument);

  // A v1 header with the weight flag set is contradictory.
  {
    std::string patched = bytes;
    const std::uint32_t v1 = 1;
    std::memcpy(patched.data() + 8, &v1, 4);
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  }
  EXPECT_THROW(read_cgr(file), std::invalid_argument);
  std::remove(file.c_str());
}

// ---- alias tables ----

TEST(AliasTable, TableProbabilitiesAreExact) {
  const std::vector<double> weights{0.5, 3.25, 1.0, 0.125, 2.0};
  const AliasTable table{std::span<const double>(weights)};
  double total = 0.0;
  for (const double w : weights) total += w;
  for (std::uint32_t j = 0; j < weights.size(); ++j) {
    EXPECT_NEAR(table.outcome_probability(j), weights[j] / total, 1e-6);
  }
}

TEST(AliasTable, RejectsBadWeights) {
  const std::vector<double> empty;
  EXPECT_THROW(AliasTable{std::span<const double>(empty)},
               std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(AliasTable{std::span<const double>(negative)},
               std::invalid_argument);
}

TEST(AliasTable, DegreeOneIsDeterministic) {
  const std::vector<double> one{3.0};
  const AliasTable table{std::span<const double>(one)};
  Rng rng(11);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(table.draw(rng), 0u);
}

/// Exact check: for every vertex, the per-slot alias masses must
/// reproduce weight(v,i)/strength(v).
void expect_exact_vertex_tables(const Graph& g) {
  const GraphAliasTables& tables = g.alias_tables();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::size_t begin = g.offset(v);
    const std::size_t d = g.degree(v);
    if (d == 0) continue;
    double strength = 0.0;
    for (std::size_t i = 0; i < d; ++i) strength += g.weight(v, i);
    for (std::size_t j = 0; j < d; ++j) {
      double mass = 0.0;
      const double inv_d = 1.0 / static_cast<double>(d);
      for (std::size_t i = 0; i < d; ++i) {
        const double p = tables.prob()[begin + i];
        if (i == j) mass += p * inv_d;
        if (tables.alias()[begin + i] == j) mass += (1.0 - p) * inv_d;
      }
      EXPECT_NEAR(mass, g.weight(v, j) / strength, 1e-6)
          << "vertex " << v << " outcome " << j;
    }
  }
}

/// Chi-square on the actual GraphAliasTables::draw path: N draws from
/// `v`, expected counts proportional to the edge weights.
void expect_draws_match_weights(const Graph& g, Vertex v, std::uint64_t seed) {
  const GraphAliasTables& tables = g.alias_tables();
  const std::size_t d = g.degree(v);
  ASSERT_GE(d, 2u);
  double strength = 0.0;
  for (std::size_t i = 0; i < d; ++i) strength += g.weight(v, i);
  const std::size_t trials = 40000 * d;
  std::vector<std::uint64_t> observed(d, 0);
  const auto nbrs = g.neighbors(v);
  Rng rng(seed);
  for (std::size_t t = 0; t < trials; ++t) {
    const Vertex w = tables.draw(g, v, rng);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    ASSERT_TRUE(it != nbrs.end() && *it == w);
    ++observed[static_cast<std::size_t>(it - nbrs.begin())];
  }
  std::vector<double> expected(d);
  for (std::size_t i = 0; i < d; ++i) {
    expected[i] = static_cast<double>(trials) * g.weight(v, i) / strength;
  }
  const auto result = chi_square_test(observed, expected);
  EXPECT_GT(result.p_value, 1e-3)
      << "vertex " << v << ": chi2=" << result.statistic
      << " dof=" << result.degrees_of_freedom;
}

TEST(GraphAlias, DrawsMatchWeightedDistributionOnRandomRegular) {
  Rng rng(21);
  Graph g = gen::random_regular(64, 8, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 1234);
  expect_exact_vertex_tables(g);
  for (const Vertex v : {Vertex{0}, Vertex{17}, Vertex{63}}) {
    expect_draws_match_weights(g, v, 500 + v);
  }
}

TEST(GraphAlias, DrawsMatchWeightedDistributionOnTorus) {
  Graph g = gen::torus({8, 8});
  gen::generate_weights(g, gen::WeightKind::kUniform, 77);
  expect_exact_vertex_tables(g);
  for (const Vertex v : {Vertex{0}, Vertex{27}}) {
    expect_draws_match_weights(g, v, 900 + v);
  }
}

TEST(GraphAlias, ParallelBuildMatchesSerialBuild) {
  // Above the parallel threshold (>1 vertex chunk, >= 2^16 half-edges)
  // the lazy build runs on the pool; tables must be identical to a
  // 1-thread build of the same weighted graph.
  const std::size_t n = 1 << 17;
  Rng rng(71);
  Graph parallel_graph = gen::random_regular(n, 4, rng);
  Graph serial_graph = parallel_graph;  // same structure, fresh alias cell
  gen::generate_weights(parallel_graph, gen::WeightKind::kExp, 13);
  serial_graph.attach_weights(
      {parallel_graph.weights().begin(), parallel_graph.weights().end()});
  const GraphAliasTables& par = parallel_graph.alias_tables();
  GraphBuilder::set_default_threads(1);
  const GraphAliasTables& ser = serial_graph.alias_tables();
  GraphBuilder::set_default_threads(0);
  ASSERT_EQ(par.prob().size(), ser.prob().size());
  for (std::size_t i = 0; i < par.prob().size(); ++i) {
    ASSERT_EQ(par.prob()[i], ser.prob()[i]) << "slot " << i;
    ASSERT_EQ(par.alias()[i], ser.alias()[i]) << "slot " << i;
  }
}

TEST(GraphAlias, IrregularFileGraphTablesAreExact) {
  // Star-ish irregular weighted graph exercises mixed degrees.
  std::stringstream buffer(
      "n 5\n0 1 10\n0 2 1\n0 3 0.1\n0 4 5\n1 2 2\n");
  Graph g = read_edge_list(buffer, "irregular");
  expect_exact_vertex_tables(g);
  expect_draws_match_weights(g, 0, 4242);
}

// ---- weight generators ----

TEST(WeightGen, DeterministicAcrossThreadCountsAndOrder) {
  Rng rng(31);
  Graph g = gen::random_regular(512, 6, rng);
  Graph h = g;  // same structure
  gen::generate_weights(g, gen::WeightKind::kExp, 5);
  gen::generate_weights(h, gen::WeightKind::kExp, 5);
  ASSERT_TRUE(g.is_weighted());
  ASSERT_EQ(g.weights().size(), h.weights().size());
  for (std::size_t i = 0; i < g.weights().size(); ++i) {
    ASSERT_EQ(g.weights()[i], h.weights()[i]);
  }
  // Both CSR copies of an edge agree, and the value is the documented
  // per-edge stream.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.weight(v, i),
                gen::edge_weight(gen::WeightKind::kExp, 5, v, nbrs[i]));
    }
  }
}

TEST(WeightGen, KindsAndSeedsProduceDistinctPositiveWeights) {
  Graph a = gen::torus({16, 16});
  Graph b = gen::torus({16, 16});
  Graph c = gen::torus({16, 16});
  gen::generate_weights(a, gen::WeightKind::kUniform, 1);
  gen::generate_weights(b, gen::WeightKind::kUniform, 2);
  gen::generate_weights(c, gen::WeightKind::kExp, 1);
  for (const float w : a.weights()) {
    ASSERT_GT(w, 0.0f);
    ASSERT_LE(w, 1.0f);  // uniform is (0, 1]
  }
  EXPECT_FALSE(std::equal(a.weights().begin(), a.weights().end(),
                          b.weights().begin()));
  EXPECT_FALSE(std::equal(a.weights().begin(), a.weights().end(),
                          c.weights().begin()));
}

// ---- weighted processes ----

ProcessParams params_for(const char* name, bool weighted, int k = 2) {
  ProcessParams params{{"name", name}};
  if (std::string(name) == "cobra" || std::string(name) == "bips") {
    params.emplace_back("k", std::to_string(k));
  }
  if (weighted) params.emplace_back("weighted", "1");
  return params;
}

TEST(WeightedProcess, AllSixVariantsRunAndAreDeterministic) {
  Rng rng(41);
  Graph g = gen::random_regular(128, 6, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  for (const char* name :
       {"cobra", "bips", "push", "pull", "push-pull", "walk"}) {
    const auto process_a = make_process(g, params_for(name, true));
    const auto process_b = make_process(g, params_for(name, true));
    const SpreadResult a = process_a->run(Rng::for_trial(7, 1), 0);
    const SpreadResult b = process_b->run(Rng::for_trial(7, 1), 0);
    EXPECT_TRUE(a.completed) << name;
    EXPECT_EQ(a.rounds, b.rounds) << name;
    EXPECT_EQ(a.total_transmissions, b.total_transmissions) << name;
    EXPECT_EQ(a.curve, b.curve) << name;
  }
}

TEST(WeightedProcess, SisAndBranchingWalkVariantsRunAndAreDeterministic) {
  // The weighted routing satellite: both processes accept weighted=1 and
  // produce identical results for identical seeds (neither is required to
  // complete — SIS can die out, the branching walk can hit its budget).
  Rng rng(40);
  Graph g = gen::random_regular(96, 6, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 23);
  for (const char* name : {"sis", "branching-walk"}) {
    const auto process_a = make_process(g, params_for(name, true));
    const auto process_b = make_process(g, params_for(name, true));
    const SpreadResult a = process_a->run(Rng::for_trial(8, 2), 0);
    const SpreadResult b = process_b->run(Rng::for_trial(8, 2), 0);
    EXPECT_EQ(a.rounds, b.rounds) << name;
    EXPECT_EQ(a.total_transmissions, b.total_transmissions) << name;
    EXPECT_EQ(a.curve, b.curve) << name;
  }
}

TEST(WeightedProcess, WeightedFlagOnUnweightedGraphFailsLoudly) {
  Rng rng(42);
  const Graph g = gen::random_regular(32, 4, rng);
  for (const char* name : {"cobra", "bips", "push", "pull", "push-pull",
                           "walk", "sis", "branching-walk"}) {
    EXPECT_THROW(make_process(g, params_for(name, true)),
                 ProcessFactoryError)
        << name;
    EXPECT_NO_THROW(make_process(g, params_for(name, false))) << name;
  }
}

TEST(WeightedProcess, WeightedFalseIsBitwiseIdenticalToUnweightedGraph) {
  // The acceptance guarantee behind the byte-identical scenario outputs:
  // a weighted graph with weighted=0 consumes the RNG exactly like the
  // stripped graph.
  Rng rng(43);
  Graph weighted_graph = gen::random_regular(256, 8, rng);
  gen::generate_weights(weighted_graph, gen::WeightKind::kUniform, 3);
  const Graph plain = weighted_graph.strip_weights();
  for (const char* name : {"cobra", "bips", "push", "pull", "push-pull",
                           "walk", "sis", "branching-walk"}) {
    const auto on_weighted =
        make_process(weighted_graph, params_for(name, false));
    const auto on_plain = make_process(plain, params_for(name, false));
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      const SpreadResult a = on_weighted->run(Rng::for_trial(9, trial), 5);
      const SpreadResult b = on_plain->run(Rng::for_trial(9, trial), 5);
      EXPECT_EQ(a.rounds, b.rounds) << name;
      EXPECT_EQ(a.total_transmissions, b.total_transmissions) << name;
      EXPECT_EQ(a.curve, b.curve) << name;
    }
  }
}

TEST(WeightedProcess, ExtremeWeightsSteerCobra) {
  // A cycle with one overwhelming edge per vertex pair: weighted draws
  // must follow the heavy edges essentially always. Build a 4-cycle where
  // edges {0,1} and {2,3} are 1e6 heavier; from 0, pushes land on 1 (not
  // 3) almost surely.
  std::stringstream buffer("n 4\n0 1 1000000\n1 2 1\n2 3 1000000\n3 0 1\n");
  Graph g = read_edge_list(buffer, "steered");
  CobraOptions options;
  options.branching = Branching::fixed(1);
  options.weighted = true;
  options.max_rounds = 1;
  options.record_curves = false;
  CobraProcess process(g, Vertex{0}, options);
  std::size_t landed_on_1 = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng = Rng::for_trial(77, static_cast<std::uint64_t>(t));
    process.reset(Vertex{0});
    process.step(trial_rng);
    ASSERT_EQ(process.frontier().size(), 1u);
    landed_on_1 += process.frontier().front() == 1 ? 1 : 0;
  }
  EXPECT_GT(landed_on_1, trials - 50);  // P(heavy) = 1e6/(1e6+1)
}

/// Weighted star for the sis / branching-walk chi-square coverage: center
/// 0 with three leaves whose edge weights differ by two orders of
/// magnitude, so a misrouted (uniform) draw fails the test immediately.
Graph weighted_star() {
  std::stringstream buffer("n 4\n0 1 10\n0 2 1\n0 3 0.1\n");
  return read_edge_list(buffer, "weighted_star");
}

TEST(WeightedProcess, SisDrawsFollowAliasTables) {
  // One infected leaf; after a single k=1 round the center is infected
  // iff its one weighted draw hit that leaf: P = w1 / (w1 + w2 + w3).
  const Graph g = weighted_star();
  SisOptions options;
  options.branching = Branching::fixed(1);
  options.max_rounds = 1;
  options.record_curve = false;
  options.weighted = true;
  SisProcess process(g, options);
  const std::size_t trials = 20000;
  std::uint64_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    (void)process.run(Rng::for_trial(606, t), Vertex{1});
    hits += process.is_infected(0) ? 1 : 0;
  }
  const double p = 10.0 / 11.1;
  const std::vector<std::uint64_t> observed = {hits, trials - hits};
  const std::vector<double> expected = {static_cast<double>(trials) * p,
                                        static_cast<double>(trials) *
                                            (1.0 - p)};
  const auto result = chi_square_test(observed, expected);
  EXPECT_GT(result.p_value, 1e-3)
      << "hits=" << hits << " chi2=" << result.statistic;
}

TEST(WeightedProcess, BranchingWalkDrawsFollowAliasTables) {
  // A single particle at the center with k=1 lands on leaf i after one
  // round with probability w_i / strength.
  const Graph g = weighted_star();
  BranchingWalkOptions options;
  options.k = 1;
  options.max_rounds = 1;
  options.record_curve = false;
  options.weighted = true;
  BranchingWalkProcess process(g, options);
  const std::size_t trials = 20000;
  std::vector<std::uint64_t> observed(3, 0);
  for (std::size_t t = 0; t < trials; ++t) {
    (void)process.run(Rng::for_trial(707, t), Vertex{0});
    ASSERT_EQ(process.population(), 1u);
    for (Vertex leaf = 1; leaf <= 3; ++leaf) {
      if (process.particles_at(leaf) > 0) ++observed[leaf - 1];
    }
  }
  const double weights[] = {10.0, 1.0, 0.1};
  const double strength = 11.1;
  std::vector<double> expected;
  for (const double w : weights) {
    expected.push_back(static_cast<double>(trials) * w / strength);
  }
  const auto result = chi_square_test(observed, expected);
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

// ---- scenario integration ----

TEST(WeightedScenario, BuildGraphWeightHooks) {
  using scenario::build_graph;
  Rng rng(51);
  const scenario::ParamMap weighted_params{{"family", "random_regular"},
                                           {"n", "64"},
                                           {"r", "4"},
                                           {"weight", "exp"},
                                           {"weight_seed", "9"}};
  Graph g = build_graph(weighted_params, rng);
  ASSERT_TRUE(g.is_weighted());
  // weight_seed pins the per-edge weights independent of the graph RNG:
  // every edge carries exactly the documented (seed, u, v) stream value.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_EQ(g.weight(v, i),
                gen::edge_weight(gen::WeightKind::kExp, 9, v, nbrs[i]));
    }
  }
  const scenario::ParamMap bad_kind{{"family", "torus"},
                                    {"dims", "4x4"},
                                    {"weight", "gamma"}};
  Rng rng3(1);
  EXPECT_THROW(build_graph(bad_kind, rng3), scenario::SpecError);
  const scenario::ParamMap stray_seed{{"family", "torus"},
                                      {"dims", "4x4"},
                                      {"weight_seed", "3"}};
  EXPECT_THROW(build_graph(stray_seed, rng3), scenario::SpecError);
}

TEST(WeightedScenario, UniversalKeysAndMemoryEstimate) {
  EXPECT_TRUE(scenario::graph_family_has_param("torus", "weight"));
  EXPECT_TRUE(scenario::graph_family_has_param("erdos_renyi", "weight_seed"));
  EXPECT_FALSE(scenario::graph_family_has_param("nope", "weight"));
  EXPECT_TRUE(process_has_param("cobra", "weighted"));
  EXPECT_TRUE(process_has_param("walk", "weighted"));
  EXPECT_TRUE(process_has_param("sis", "weighted"));
  EXPECT_TRUE(process_has_param("branching-walk", "weighted"));
  EXPECT_FALSE(process_has_param("flood", "weighted"));

  const scenario::ParamMap params{{"family", "random_regular"},
                                  {"n", "1024"},
                                  {"r", "8"},
                                  {"weight", "uniform"}};
  const auto est = scenario::estimate_graph_memory(params);
  ASSERT_TRUE(est.known);
  EXPECT_EQ(est.endpoints, 1024u * 8u);
  // Weights add 8m bytes = endpoints * sizeof(float).
  EXPECT_EQ(est.weight_bytes, est.endpoints * sizeof(float));
  EXPECT_EQ(est.total_bytes(), est.csr_bytes + est.weight_bytes);

  const scenario::ParamMap unweighted{{"family", "random_regular"},
                                      {"n", "1024"},
                                      {"r", "8"}};
  EXPECT_EQ(scenario::estimate_graph_memory(unweighted).weight_bytes, 0u);
}

TEST(WeightedScenario, WeightFileAssertsLoadedWeights) {
  const std::string file = test_temp_dir() + "weighted_scenario.el";
  {
    std::ofstream out(file);
    out << "n 3\n0 1 0.5\n1 2 2\n";
  }
  Rng rng(61);
  const scenario::ParamMap good{{"family", "file"},
                                {"file", file},
                                {"weight", "file"}};
  const Graph g = scenario::build_graph(good, rng);
  EXPECT_TRUE(g.is_weighted());
  // weight=file on a family that produces unweighted graphs errors.
  const scenario::ParamMap bad{{"family", "torus"},
                               {"dims", "4x4"},
                               {"weight", "file"}};
  EXPECT_THROW(scenario::build_graph(bad, rng), scenario::SpecError);
  std::remove(file.c_str());
}

}  // namespace

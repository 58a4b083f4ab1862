// SPDX-License-Identifier: MIT
//
// Tests for the ablation/instrumentation modules: the non-coalescing
// branching walk and per-vertex load accounting.
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/load.hpp"
#include "graph/generators.hpp"
#include "protocols/branching_walk.hpp"

namespace cobra {
namespace {

TEST(BranchingWalk, PopulationDoublesWithoutCoalescing) {
  // On K_n with k = 2 and no collisions with the cap, population is
  // exactly 2^t until saturation.
  const Graph g = gen::complete(32);
  Rng rng(1);
  BranchingWalkOptions options;
  options.max_rounds = 6;
  const auto result = run_branching_walk(g, 0, options, rng);
  ASSERT_GE(result.population_curve.size(), 6u);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(result.population_curve[t], 1ull << t) << "t=" << t;
  }
}

TEST(BranchingWalk, CoversExpander) {
  Rng graph_rng(2);
  const Graph g = gen::connected_random_regular(256, 8, graph_rng);
  Rng rng(3);
  BranchingWalkOptions options;
  options.max_rounds = 64;
  const auto result = run_branching_walk(g, 0, options, rng);
  EXPECT_TRUE(result.covered);
  // Without coalescing, messages blow up exponentially: covering 256
  // vertices costs far more than COBRA's ~2 messages per vertex per round.
  EXPECT_GT(result.total_messages, 1000u);
}

TEST(BranchingWalk, MessagesGrowGeometrically) {
  const Graph g = gen::complete(64);
  Rng rng(4);
  BranchingWalkOptions options;
  options.max_rounds = 10;
  const auto result = run_branching_walk(g, 0, options, rng);
  // Total messages = 2 + 4 + ... ~ 2^(rounds+1) - 2 until saturation.
  EXPECT_GE(result.total_messages, (1ull << result.rounds) - 2);
}

TEST(BranchingWalk, SaturationIsReported) {
  const Graph g = gen::cycle(16);
  Rng rng(5);
  BranchingWalkOptions options;
  options.max_rounds = 40;
  options.vertex_cap = 64;  // force saturation quickly
  const auto result = run_branching_walk(g, 0, options, rng);
  EXPECT_TRUE(result.saturated);
}

TEST(BranchingWalk, RejectsBadInputs) {
  const Graph g = gen::cycle(5);
  Rng rng(6);
  EXPECT_THROW(run_branching_walk(g, 9, {}, rng), std::invalid_argument);
  BranchingWalkOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW(run_branching_walk(g, 0, zero_k, rng), std::invalid_argument);
}

TEST(Load, ActivationsCoverRun) {
  const Graph g = gen::complete(64);
  Rng rng(7);
  const auto report = run_cobra_with_load(g, 0, {}, rng);
  ASSERT_TRUE(report.covered);
  // The start vertex counts round 0.
  EXPECT_GE(report.activations[0], 1u);
  // Total activations = sum of frontier sizes = rounds' worth of senders.
  std::uint64_t total = 0;
  for (const auto count : report.activations) total += count;
  EXPECT_GT(total, report.rounds);  // frontier is never empty
  EXPECT_GT(report.mean_activations, 0.0);
  EXPECT_GE(report.max_activations, 1u);
}

TEST(Load, MaxLoadIsModestOnExpanders) {
  Rng graph_rng(8);
  const Graph g = gen::connected_random_regular(1024, 8, graph_rng);
  Rng rng(9);
  const auto report = run_cobra_with_load(g, 0, {}, rng);
  ASSERT_TRUE(report.covered);
  // No hot vertex: max activations stays O(rounds) and in practice far
  // below; mean is around rounds * E|C_t| / n < rounds.
  EXPECT_LE(report.max_activations, report.rounds);
  EXPECT_LT(report.mean_activations, static_cast<double>(report.rounds));
}

TEST(Load, DeterministicUnderSeed) {
  const Graph g = gen::petersen();
  Rng a(10);
  Rng b(10);
  const auto ra = run_cobra_with_load(g, 0, {}, a);
  const auto rb = run_cobra_with_load(g, 0, {}, b);
  EXPECT_EQ(ra.activations, rb.activations);
  EXPECT_EQ(ra.rounds, rb.rounds);
}

}  // namespace
}  // namespace cobra

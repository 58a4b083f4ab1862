// SPDX-License-Identifier: MIT
//
// Baseline protocol tests: random walk, push, push-pull, flooding.
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/vertex_set.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "protocols/flood.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "protocols/random_walk.hpp"

namespace cobra {
namespace {

TEST(RandomWalkTest, StaysOnNeighbors) {
  const Graph g = gen::petersen();
  Rng rng(1);
  RandomWalk walk(g, 0);
  Vertex prev = 0;
  for (int t = 0; t < 500; ++t) {
    const Vertex now = walk.step(rng);
    EXPECT_TRUE(g.has_edge(prev, now));
    prev = now;
  }
  EXPECT_EQ(walk.steps(), 500u);
}

TEST(RandomWalkTest, CoversSmallGraph) {
  const Graph g = gen::cycle(20);
  Rng rng(2);
  const auto result = run_walk_cover(g, 0, {}, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.final_count, 20u);
  // Cycle cover time is Theta(n^2); sanity bound.
  EXPECT_GE(result.rounds, 19u);
}

TEST(RandomWalkTest, CoverCurveHasOneEntryPerVertex) {
  const Graph g = gen::complete(15);
  Rng rng(3);
  const auto result = run_walk_cover(g, 0, {}, rng);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.curve.size(), 15u);  // one entry per distinct visit
}

TEST(RandomWalkTest, HittingTimeZeroAtSelf) {
  const Graph g = gen::cycle(9);
  Rng rng(4);
  EXPECT_EQ(walk_hitting_time(g, 4, 4, {}, rng).value(), 0u);
}

TEST(RandomWalkTest, HittingTimeTimesOut) {
  const Graph g = gen::cycle(100);
  Rng rng(5);
  RandomWalkOptions options;
  options.max_steps = 5;
  EXPECT_FALSE(walk_hitting_time(g, 0, 50, options, rng).has_value());
}

TEST(RandomWalkTest, RejectsBadStart) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(RandomWalk(g, 10), std::invalid_argument);
}

TEST(Push, InformsEveryoneOnExpander) {
  const Graph g = gen::complete(128);
  Rng rng(6);
  const auto result = run_push(g, 0, {}, rng);
  EXPECT_TRUE(result.completed);
  // Push on K_n takes ~ log2 n + ln n rounds; generous upper bound.
  EXPECT_LE(result.rounds, 60u);
}

TEST(Push, InformedSetIsMonotone) {
  const Graph g = gen::torus({6, 6});
  Rng rng(7);
  const auto result = run_push(g, 0, {}, rng);
  ASSERT_TRUE(result.completed);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i], result.curve[i - 1]);
  }
}

TEST(Push, TransmissionsGrowWithInformedSet) {
  const Graph g = gen::complete(64);
  Rng rng(8);
  const auto result = run_push(g, 0, {}, rng);
  ASSERT_TRUE(result.completed);
  // Total transmissions = sum of informed counts per round > rounds.
  EXPECT_GT(result.total_transmissions, result.rounds);
  EXPECT_EQ(result.peak_vertex_round_transmissions, 1u);
}

TEST(PushPull, FasterOrEqualToPushOnAverage) {
  const Graph g = gen::complete(128);
  double push_total = 0;
  double pushpull_total = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng r1(seed);
    Rng r2(seed + 500);
    push_total += static_cast<double>(run_push(g, 0, {}, r1).rounds);
    pushpull_total += static_cast<double>(run_push_pull(g, 0, {}, r2).rounds);
  }
  EXPECT_LE(pushpull_total, push_total);
}

TEST(PushPull, CompletesOnSparseGraph) {
  const Graph g = gen::cycle(64);
  Rng rng(9);
  PushPullOptions options;
  options.max_rounds = 100000;
  const auto result = run_push_pull(g, 0, options, rng);
  EXPECT_TRUE(result.completed);
}

TEST(PushPull, InformedNeverDecreases) {
  const Graph g = gen::petersen();
  Rng rng(10);
  const auto result = run_push_pull(g, 0, {}, rng);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i], result.curve[i - 1]);
  }
}

// The push family's sparse-mode rule (InformedNeighbors): it decides only
// speed, so the digests cannot see it; these pin where it switches.

TEST(InformedNeighbors, OnlyFaultFreeTrialsWithWeightedDrawsStartSparse) {
  Graph g = gen::torus({8, 8});
  InformedNeighbors counts;
  counts.count.resize(g.num_vertices());
  counts.reset(draws_of(g, nullptr), 0, true);
  EXPECT_FALSE(counts.sparse);
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  const Draws alias = draws_of(g, &g.alias_tables());
  counts.reset(alias, 0, false);
  EXPECT_FALSE(counts.sparse);
  counts.reset(alias, 0, true);
  ASSERT_TRUE(counts.sparse);
  for (const Vertex w : g.neighbors(0)) EXPECT_EQ(counts.count[w], 1u);
  // Live contacts up to n/8 keep the trial sparse; one more ends it.
  counts.end_round(64, 8, 4);
  EXPECT_TRUE(counts.sparse);
  counts.end_round(64, 9, 0);
  EXPECT_FALSE(counts.sparse);
}

TEST(InformedNeighbors, IncrementsPastNPlusTheQuietContactsEndSparseMode) {
  Graph g = gen::complete(64);
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  InformedNeighbors counts;
  counts.count.resize(g.num_vertices());
  counts.reset(draws_of(g, &g.alias_tables()), 0, true);
  ASSERT_TRUE(counts.sparse);
  // Push's first round: the start's one live contact informs a vertex
  // whose 63 increments overdraw the 64 - 63 the start's left.
  counts.end_round(1, 1, 63);
  EXPECT_FALSE(counts.sparse);
}

TEST(Flood, RoundsEqualEccentricity) {
  for (const auto& g : {gen::cycle(11), gen::torus({4, 6}), gen::hypercube(5),
                        gen::petersen(), gen::binary_tree(5)}) {
    const auto result = run_flood(g, 0, {});
    ASSERT_TRUE(result.completed) << g.name();
    EXPECT_EQ(result.rounds, eccentricity(g, 0).value()) << g.name();
  }
}

TEST(Flood, IsDeterministic) {
  const Graph g = gen::torus({5, 5});
  const auto a = run_flood(g, 3, {});
  const auto b = run_flood(g, 3, {});
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.curve, b.curve);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
}

TEST(Flood, MessageCountReflectsDegrees) {
  const Graph g = gen::complete(10);
  const auto result = run_flood(g, 0, {});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.total_transmissions, 9u);  // start sends to all others
  EXPECT_EQ(result.peak_vertex_round_transmissions, 9u);
}

TEST(Flood, CurveMatchesBfsLayers) {
  const Graph g = gen::hypercube(4);
  const auto result = run_flood(g, 0, {});
  const auto dist = bfs_distances(g, 0);
  for (std::size_t t = 0; t < result.curve.size(); ++t) {
    std::size_t within = 0;
    for (const std::size_t d : dist) within += (d <= t);
    EXPECT_EQ(result.curve[t], within) << "round " << t;
  }
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// COBRA process tests: frontier semantics, coalescing, cover invariants,
// Theorem-shaped behaviour on known families, the exact k=1 random-walk
// degeneration, and run() against the stepped loop (k = 1 runs as a walk
// loop inside run()).
#include "core/cobra.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "protocols/random_walk.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

TEST(Cobra, RejectsBadConstruction) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(CobraProcess(g, 9), std::invalid_argument);
  EXPECT_THROW(CobraProcess(Graph(), 0), std::invalid_argument);
  CobraOptions zero_k;
  zero_k.branching = Branching::fixed(0);
  EXPECT_THROW(CobraProcess(g, 0, zero_k), std::invalid_argument);
  Graph with_isolated = [] {
    GraphBuilder b(3);
    b.add_edge(0, 1);
    return b.build("iso");
  }();
  // A degree-0 start is rejected; isolated vertices elsewhere are fine
  // (the frontier can never reach vertex 2, so cover never completes).
  EXPECT_THROW(CobraProcess(with_isolated, 2), std::invalid_argument);
  CobraProcess tolerated(with_isolated, 0);
  EXPECT_THROW(tolerated.reset(2), std::invalid_argument);
  Rng rng(3);
  for (int i = 0; i < 32; ++i) tolerated.step(rng);
  EXPECT_EQ(tolerated.visited_count(), 2u);
  EXPECT_FALSE(tolerated.covered());
}

TEST(Cobra, InitialStateIsStartSet) {
  const Graph g = gen::cycle(6);
  const CobraProcess process(g, 2);
  EXPECT_EQ(process.round(), 0u);
  EXPECT_EQ(process.visited_count(), 1u);
  ASSERT_EQ(process.frontier().size(), 1u);
  EXPECT_EQ(process.frontier()[0], 2u);
  EXPECT_TRUE(process.has_visited(2));
  EXPECT_FALSE(process.has_visited(0));
}

TEST(Cobra, MultiStartDeduplicates) {
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> starts{1, 3, 1, 3, 5};
  const CobraProcess process(g, starts);
  EXPECT_EQ(process.visited_count(), 3u);
  EXPECT_EQ(process.frontier().size(), 3u);
}

TEST(Cobra, FrontierIsAlwaysASet) {
  const Graph g = gen::complete(10);
  Rng rng(1);
  CobraProcess process(g, 0);
  for (int t = 0; t < 30; ++t) {
    process.step(rng);
    std::set<Vertex> unique(process.frontier().begin(),
                            process.frontier().end());
    EXPECT_EQ(unique.size(), process.frontier().size()) << "round " << t;
  }
}

TEST(Cobra, FrontierAtMostDoublesWithK2) {
  const Graph g = gen::complete(64);
  Rng rng(2);
  CobraProcess process(g, 0);
  std::size_t prev = 1;
  for (int t = 0; t < 20; ++t) {
    process.step(rng);
    EXPECT_LE(process.frontier().size(), 2 * prev) << "round " << t;
    prev = process.frontier().size();
    if (prev == 0) break;
  }
}

TEST(Cobra, FrontierNeverEmpty) {
  // The process never dies: every active vertex pushes somewhere.
  const Graph g = gen::petersen();
  Rng rng(3);
  CobraProcess process(g, 0);
  for (int t = 0; t < 200; ++t) {
    process.step(rng);
    EXPECT_GE(process.frontier().size(), 1u);
  }
}

TEST(Cobra, VisitedCountIsMonotone) {
  const Graph g = gen::torus({5, 5});
  Rng rng(4);
  CobraProcess process(g, 0);
  std::size_t prev = process.visited_count();
  for (int t = 0; t < 100 && !process.covered(); ++t) {
    process.step(rng);
    EXPECT_GE(process.visited_count(), prev);
    prev = process.visited_count();
  }
}

TEST(Cobra, FirstVisitRoundsAreConsistent) {
  const Graph g = gen::cycle(12);
  Rng rng(5);
  CobraProcess process(g, 0);
  while (!process.covered()) process.step(rng);
  const auto visits = process.first_visit_rounds();
  EXPECT_EQ(visits[0], 0u);
  for (Vertex v = 0; v < 12; ++v) {
    EXPECT_NE(visits[v], kRoundNever);
    EXPECT_LE(visits[v], process.round());
    // A vertex visited at round t >= 1 must have a neighbour visited at t-1.
    if (visits[v] >= 1) {
      bool has_earlier_neighbor = false;
      for (const Vertex w : g.neighbors(v)) {
        has_earlier_neighbor |= (visits[w] == visits[v] - 1) ||
                                (visits[w] < visits[v]);
      }
      EXPECT_TRUE(has_earlier_neighbor) << v;
    }
  }
}

TEST(Cobra, CoversCompleteGraphInLogRounds) {
  const std::size_t n = 256;
  const Graph g = gen::complete(n);
  Rng rng(6);
  CobraOptions options;
  options.max_rounds = 200;
  const auto result = run_cobra_cover(g, 0, options, rng);
  EXPECT_TRUE(result.completed);
  // log2(256) = 8 is a hard lower bound; typical completion ~ 12-20.
  EXPECT_GE(result.rounds, 8u);
  EXPECT_LE(result.rounds, 60u);
}

TEST(Cobra, CoverCurveIsMonotoneAndEndsAtN) {
  const Graph g = gen::torus({4, 4});
  Rng rng(7);
  CobraOptions options;
  const auto result = run_cobra_cover(g, 3, options, rng);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.front(), 1u);
  EXPECT_EQ(result.curve.back(), 16u);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i], result.curve[i - 1]);
  }
}

TEST(Cobra, MaxRoundsAborts) {
  const Graph g = gen::cycle(1000);
  Rng rng(8);
  CobraOptions options;
  options.max_rounds = 3;  // cycle needs ~n/2 rounds; 3 cannot cover
  const auto result = run_cobra_cover(g, 0, options, rng);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_LT(result.final_count, 1000u);
}

TEST(Cobra, TransmissionAccountingMatchesKTimesFrontier) {
  const Graph g = gen::complete(32);
  Rng rng(9);
  CobraOptions options;
  options.branching = Branching::fixed(2);
  CobraProcess process(g, 0, options);
  std::uint64_t expected_total = 0;
  for (int t = 0; t < 10; ++t) {
    expected_total += 2 * process.frontier().size();
    process.step(rng);
  }
  EXPECT_EQ(process.total_transmissions(), expected_total);
  EXPECT_EQ(process.peak_vertex_round_transmissions(), 2u);
}

TEST(Cobra, K1MatchesRandomWalkTrajectory) {
  // COBRA with k=1 IS a simple random walk; with identical RNG streams the
  // trajectories must agree exactly (same neighbour-draw convention).
  const Graph g = gen::petersen();
  Rng rng_walk(10);
  Rng rng_cobra(10);
  RandomWalk walk(g, 4);
  CobraOptions options;
  options.branching = Branching::fixed(1);
  options.record_curves = false;
  CobraProcess process(g, 4, options);
  for (int t = 0; t < 500; ++t) {
    const Vertex walk_position = walk.step(rng_walk);
    process.step(rng_cobra);
    ASSERT_EQ(process.frontier().size(), 1u);
    EXPECT_EQ(process.frontier()[0], walk_position) << "step " << t;
  }
}

TEST(Cobra, FractionalBranchingStaysBetween1And2) {
  const Graph g = gen::complete(64);
  Rng rng(11);
  CobraOptions options;
  options.branching = Branching::fractional(0.5);
  CobraProcess process(g, 0, options);
  std::size_t prev = 1;
  for (int t = 0; t < 30; ++t) {
    process.step(rng);
    EXPECT_LE(process.frontier().size(), 2 * prev);
    prev = std::max<std::size_t>(process.frontier().size(), 1);
  }
  EXPECT_LE(process.peak_vertex_round_transmissions(), 2u);
  EXPECT_GE(process.peak_vertex_round_transmissions(), 1u);
}

TEST(Cobra, RhoZeroNeverBranches) {
  const Graph g = gen::cycle(30);
  Rng rng(12);
  CobraOptions options;
  options.branching = Branching::fractional(0.0);
  CobraProcess process(g, 0, options);
  for (int t = 0; t < 50; ++t) {
    process.step(rng);
    EXPECT_EQ(process.frontier().size(), 1u);
  }
}

TEST(Cobra, HittingTimeZeroWhenTargetInStart) {
  const Graph g = gen::cycle(8);
  Rng rng(13);
  const std::vector<Vertex> starts{3};
  const auto hit = cobra_hitting_time(g, starts, 3, {}, rng);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0u);
}

TEST(Cobra, HittingTimeReachesAntipode) {
  const Graph g = gen::complete(50);
  Rng rng(14);
  const std::vector<Vertex> starts{0};
  CobraOptions options;
  options.max_rounds = 1000;
  const auto hit = cobra_hitting_time(g, starts, 42, options, rng);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(*hit, 1u);
  EXPECT_LE(*hit, 1000u);
}

TEST(Cobra, HittingTimeTimesOut) {
  const Graph g = gen::cycle(500);
  Rng rng(15);
  const std::vector<Vertex> starts{0};
  CobraOptions options;
  options.max_rounds = 2;
  EXPECT_FALSE(cobra_hitting_time(g, starts, 250, options, rng).has_value());
}

TEST(Cobra, DeterministicUnderSeed) {
  const Graph g = gen::torus({5, 5});
  CobraOptions options;
  Rng a(99);
  Rng b(99);
  const auto ra = run_cobra_cover(g, 0, options, a);
  const auto rb = run_cobra_cover(g, 0, options, b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.curve, rb.curve);
  EXPECT_EQ(ra.total_transmissions, rb.total_transmissions);
}

TEST(Cobra, K4CoversFasterThanK2OnAverage) {
  const Graph g = gen::complete(128);
  CobraOptions k2;
  k2.branching = Branching::fixed(2);
  CobraOptions k4;
  k4.branching = Branching::fixed(4);
  double total2 = 0;
  double total4 = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng r2(seed);
    Rng r4(seed + 1000);
    total2 += static_cast<double>(run_cobra_cover(g, 0, k2, r2).rounds);
    total4 += static_cast<double>(run_cobra_cover(g, 0, k4, r4).rounds);
  }
  EXPECT_LT(total4, total2);
}

// ---- run() vs reset() + step(): the k = 1 walk loop ----

/// Runs the same trials through run() on one workspace and through
/// reset() + step() on another, reusing both across seeds; the results,
/// the first-visit rounds and the final frontiers must agree. Returns
/// their digest.
std::uint64_t expect_run_matches_steps(const Graph& g,
                                       const std::vector<Vertex>& starts,
                                       CobraOptions options) {
  options.record_curves = false;  // the walk loop never records a curve
  CobraProcess ran(g, starts, options);
  CobraProcess stepped(g, starts, options);
  Fnv1a hash;
  for (const std::uint64_t seed : {3u, 77u, 4242u}) {
    const SpreadResult via_run = ran.run(Rng(seed), starts);
    stepped.reset(Rng(seed), starts);
    while (!stepped.done()) stepped.step();
    EXPECT_EQ(via_run, stepped.result()) << g.name() << " seed " << seed;
    EXPECT_EQ(ran.first_visit_rounds(), stepped.first_visit_rounds())
        << g.name() << " seed " << seed;
    const std::span<const Vertex> a = ran.frontier();
    const std::span<const Vertex> b = stepped.frontier();
    EXPECT_EQ(std::vector<Vertex>(a.begin(), a.end()),
              std::vector<Vertex>(b.begin(), b.end()))
        << g.name() << " seed " << seed;
    hash.add(via_run);
    hash.add_range(ran.first_visit_rounds());
    hash.add_range(a);
  }
  return hash.value();
}

CobraOptions k1_options() {
  CobraOptions options;
  options.branching = Branching::fixed(1);
  return options;
}

TEST(CobraRun, K1MatchesSteppedLoopOnRandomRegular) {
  Rng rng(31);
  const Graph g = gen::connected_random_regular(256, 8, rng);
  // Recorded from the earlier stamp-array/sorted-list frontier (each of
  // its representations gave this digest).
  EXPECT_EQ(expect_run_matches_steps(g, {5}, k1_options()),
            0x38ce5b6178a157d4ULL);
}

TEST(CobraRun, K1MatchesSteppedLoopOnIrregularGraph) {
  expect_run_matches_steps(gen::lollipop(12, 20), {0}, k1_options());
  expect_run_matches_steps(gen::grid({9, 7}, false), {3}, k1_options());
}

TEST(CobraRun, K1MatchesSteppedLoopOnWeightedGraph) {
  Graph g = gen::torus({12, 12});
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  CobraOptions options = k1_options();
  options.weighted = true;  // alias draws: two RNG draws per step
  expect_run_matches_steps(g, {0}, options);
}

TEST(CobraRun, K1MatchesSteppedLoopBelowTheCoverTime) {
  Rng rng(32);
  const Graph g = gen::connected_random_regular(512, 8, rng);
  CobraOptions options = k1_options();
  options.max_rounds = 200;
  options.record_curves = false;
  expect_run_matches_steps(g, {9}, options);
  CobraProcess process(g, 9, options);
  const SpreadResult result = process.run(Rng(3), 9);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 200u);
  EXPECT_EQ(result.total_transmissions, 200u);
}

TEST(CobraRun, K1TwoStartsCoalesceThenWalk) {
  // Two walkers on star leaves both step to the centre and coalesce in
  // round 1; the frontier then stays one vertex and the rest of the trial
  // runs as the walk loop.
  const Graph g = gen::star(24);
  const std::vector<Vertex> starts = {2, 11};
  expect_run_matches_steps(g, starts, k1_options());
  CobraOptions options = k1_options();
  options.record_curves = false;
  CobraProcess process(g, starts, options);
  const SpreadResult result = process.run(Rng(3), starts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(process.first_visit_round(0), 1u);
  EXPECT_EQ(result.total_transmissions, result.rounds + 1);
}

TEST(CobraRun, BranchingProcessesMatchSteppedLoop) {
  Rng rng(33);
  const Graph g = gen::connected_random_regular(256, 8, rng);
  CobraOptions k2;
  expect_run_matches_steps(g, {1}, k2);
  CobraOptions fractional;
  fractional.branching = Branching::fractional(0.3);
  expect_run_matches_steps(g, {1}, fractional);
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Engine regression tests for the high-throughput hot path: results must
// be a pure function of (base_seed, trial index) regardless of thread
// count or workspace reuse, and whole trials must match recorded digests;
// the 32-bit Lemire fast path must be uniform; geometric-skipping
// Bernoulli must match the per-trial law.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "rand/sampling.hpp"
#include "sim/trial_runner.hpp"
#include "stats/chi_square.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

Graph test_expander(std::size_t n) {
  Rng graph_rng(17);
  return gen::connected_random_regular(n, 8, graph_rng);
}

std::vector<SpreadResult> cobra_trials(const Graph& g, std::size_t threads,
                                       CobraOptions options) {
  TrialOptions trials;
  trials.trials = 48;
  trials.threads = threads;
  const std::size_t n = g.num_vertices();
  return run_trials_collect<SpreadResult, CobraProcess>(
      trials, [&] { return CobraProcess(g, 0, options); },
      [&](std::size_t i, Rng& rng, CobraProcess& process) {
        return run_cobra_cover(process, static_cast<Vertex>(i % n), rng);
      });
}

std::vector<SpreadResult> bips_trials(const Graph& g, std::size_t threads) {
  TrialOptions trials;
  trials.trials = 48;
  trials.threads = threads;
  const std::size_t n = g.num_vertices();
  return run_trials_collect<SpreadResult, BipsProcess>(
      trials, [&] { return BipsProcess(g, 0, BipsOptions{}); },
      [&](std::size_t i, Rng& rng, BipsProcess& process) {
        return run_bips_infection(process, static_cast<Vertex>(i % n), rng);
      });
}

TEST(EngineDeterminism, CobraIdenticalAcrossThreadCounts) {
  const Graph g = test_expander(1024);
  const auto serial = cobra_trials(g, 0, {});
  const auto one = cobra_trials(g, 1, {});
  const auto eight = cobra_trials(g, 8, {});
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

TEST(EngineDeterminism, BipsIdenticalAcrossThreadCounts) {
  const Graph g = test_expander(1024);
  const auto serial = bips_trials(g, 0);
  const auto one = bips_trials(g, 1);
  const auto eight = bips_trials(g, 8);
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

TEST(EngineDeterminism, WorkspaceReuseMatchesFreshConstruction) {
  const Graph g = test_expander(512);
  TrialOptions trials;
  trials.trials = 32;
  const auto fresh = run_trials_collect<SpreadResult>(
      trials, [&](std::size_t i, Rng& rng) {
        return run_cobra_cover(g, static_cast<Vertex>(i % g.num_vertices()),
                               CobraOptions{}, rng);
      });
  const auto reused = cobra_trials(g, 0, {});
  ASSERT_EQ(fresh.size(), 32u);  // prefix of the 48 reused trials
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], reused[i]) << "trial " << i;
  }
}

TEST(EngineDeterminism, BipsResetMatchesFreshConstruction) {
  const Graph g = test_expander(512);
  BipsProcess process(g, 0, BipsOptions{});
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng fresh_rng(seed);
    Rng reused_rng(seed);
    const auto start = static_cast<Vertex>(seed * 37 % g.num_vertices());
    const auto fresh = run_bips_infection(g, start, BipsOptions{}, fresh_rng);
    const auto reused = run_bips_infection(process, start, reused_rng);
    EXPECT_EQ(fresh, reused) << "seed " << seed;
  }
}

// The frontier, round count and first-visit rounds of whole stepped
// trials, hashed and compared with digests recorded from the earlier
// stamp-array/sorted-list frontier (each of its representations gave
// these digests).
TEST(EngineDeterminism, CobraSteppedTrialsMatchRecordedDigest) {
  const Graph g = test_expander(2048);
  Fnv1a hash;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    CobraProcess process(g, 0, CobraOptions{});
    while (!process.covered()) {
      process.step(rng);
      hash.add_range(process.frontier());
    }
    hash.add(process.round());
    hash.add_range(process.first_visit_rounds());
  }
  EXPECT_EQ(hash.value(), 0x45381710f51cfc54ULL);
}

TEST(EngineDeterminism, CobraFractionalBranchingMatchesRecordedDigest) {
  const Graph g = test_expander(1024);
  CobraOptions options;
  options.branching = Branching::fractional(0.35);
  Rng rng(5);
  Fnv1a hash;
  hash.add(run_cobra_cover(g, 3, options, rng));
  EXPECT_EQ(hash.value(), 0x9bbc29a91f6bd66aULL);
}

TEST(CobraFrontier, ListIsAscendingAndMatchesRecordedDigest) {
  const Graph g = test_expander(1024);
  Rng rng(7);
  CobraProcess process(g, 0, CobraOptions{});
  Fnv1a hash;
  for (int t = 0; t < 12; ++t) {
    process.step(rng);
    const auto frontier = process.frontier();
    EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
    EXPECT_EQ(frontier.size(), process.frontier_size());
    const std::set<Vertex> unique(frontier.begin(), frontier.end());
    EXPECT_EQ(unique.size(), frontier.size());
    hash.add_range(frontier);
  }
  EXPECT_EQ(hash.value(), 0xfb6288ed4604d98eULL);
}

TEST(CobraReset, ReplaysIdenticallyAndRewindsState) {
  const Graph g = test_expander(512);
  CobraOptions options;
  CobraProcess process(g, 0, options);
  Rng rng_a(3);
  const auto first = run_cobra_cover(process, 11, rng_a);
  EXPECT_TRUE(process.covered());
  process.reset(Vertex{11});
  EXPECT_EQ(process.round(), 0u);
  EXPECT_EQ(process.visited_count(), 1u);
  EXPECT_FALSE(process.covered());
  EXPECT_TRUE(process.has_visited(11));
  Rng rng_b(3);
  const auto second = run_cobra_cover(process, 11, rng_b);
  EXPECT_EQ(first, second);
}

TEST(BipsAccounting, CountsActualProbes) {
  const Graph g = gen::complete(64);
  Rng rng(2);
  BipsProcess process(g, 0, BipsOptions{});
  process.step(rng);
  // Round 1: every non-source vertex has exactly one infected neighbour
  // (the source), so all 63 are sampled, drawing 1 or 2 probes each.
  EXPECT_GE(process.total_probes(), 63u);
  EXPECT_LE(process.total_probes(), 126u);
  EXPECT_LE(process.peak_vertex_round_probes(), 2u);
  EXPECT_GE(process.peak_vertex_round_probes(), 1u);
  process.reset(Vertex{0});
  EXPECT_EQ(process.total_probes(), 0u);
  EXPECT_EQ(process.peak_vertex_round_probes(), 0u);
}

TEST(BipsAccounting, FullInfectionReportsDrawnProbes) {
  const Graph g = gen::complete(128);
  Rng rng(4);
  BipsOptions options;
  const auto result = run_bips_infection(g, 0, options, rng);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.total_transmissions, 0u);
  // k = 2 fixed branching: no vertex can draw more than 2 in a round, and
  // the total cannot exceed the nominal 2(n-1) per round.
  EXPECT_LE(result.peak_vertex_round_transmissions, 2u);
  EXPECT_LE(result.total_transmissions,
            2u * (g.num_vertices() - 1) * result.rounds);
}

TEST(BipsMultiSource, ReportsFullSourceSet) {
  const Graph g = gen::cycle(12);
  const std::vector<Vertex> sources{9, 3, 3, 6};
  BipsProcess process(g, std::span<const Vertex>(sources));
  const auto reported = process.sources();
  ASSERT_EQ(reported.size(), 3u);
  EXPECT_EQ(reported[0], 3u);
  EXPECT_EQ(reported[1], 6u);
  EXPECT_EQ(reported[2], 9u);
  EXPECT_EQ(process.source(), 3u);  // lowest-indexed source
  EXPECT_TRUE(process.is_source(3));
  EXPECT_TRUE(process.is_source(6));
  EXPECT_TRUE(process.is_source(9));
  EXPECT_FALSE(process.is_source(0));
  process.reset(Vertex{5});
  EXPECT_EQ(process.sources().size(), 1u);
  EXPECT_EQ(process.source(), 5u);
  EXPECT_FALSE(process.is_source(3));
}

TEST(BipsActiveList, ShrinksNearSaturation) {
  // Late rounds must not pay O(n): once the graph is fully infected the
  // active list is empty (every vertex has a forced outcome).
  const Graph g = test_expander(1024);
  Rng rng(6);
  BipsProcess process(g, 0, BipsOptions{});
  std::size_t rounds = 0;
  while (!process.fully_infected() && rounds < 4096) {
    process.step(rng);
    ++rounds;
  }
  ASSERT_TRUE(process.fully_infected());
  process.step(rng);
  EXPECT_EQ(process.active_size(), 0u);
  EXPECT_TRUE(process.fully_infected());
}

TEST(RngFastPath, NextBelow32StaysInRange) {
  Rng rng(123);
  for (const std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, (1u << 31) + 7u}) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_LT(rng.next_below32(bound), bound);
    }
  }
}

TEST(RngFastPath, NextBelow32IsUniformChiSquare) {
  // Non-power-of-two bound so the Lemire rejection path matters.
  constexpr std::uint32_t kBound = 773;
  constexpr int kDrawsPerBin = 200;
  constexpr std::uint64_t kDraws = kBound * kDrawsPerBin;
  Rng rng(20260729);
  std::vector<std::uint64_t> observed(kBound, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++observed[rng.next_below32(kBound)];
  }
  const std::vector<double> expected(kBound, double(kDrawsPerBin));
  const auto result = chi_square_test(observed, expected);
  EXPECT_EQ(result.degrees_of_freedom, kBound - 1);
  EXPECT_GT(result.p_value, 1e-3);
  EXPECT_LT(result.p_value, 1.0 - 1e-6);
}

TEST(BernoulliSkip, MatchesBernoulliLaw) {
  for (const double p : {0.05, 0.3, 0.7}) {
    Rng rng(static_cast<std::uint64_t>(p * 1000));
    BernoulliSkipper skipper(p);
    constexpr int kTrials = 200000;
    int hits = 0;
    for (int i = 0; i < kTrials; ++i) hits += skipper.next(rng);
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.01) << "p=" << p;
  }
}

TEST(BernoulliSkip, SaturatesAtEndpoints) {
  Rng rng(9);
  BernoulliSkipper never(0.0);
  BernoulliSkipper always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.next(rng));
    EXPECT_TRUE(always.next(rng));
  }
  // Endpoint skippers consume no randomness at all.
  Rng untouched(9);
  EXPECT_EQ(rng.state(), untouched.state());
}

}  // namespace
}  // namespace cobra

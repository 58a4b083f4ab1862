// SPDX-License-Identifier: MIT
//
// Simulation harness tests: thread pool correctness, trial-runner
// determinism (serial == pooled), and the sweep measurement helpers.
#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trial_runner.hpp"

namespace cobra {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SizeReflectsConstruction) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(TrialRunner, SerialEqualsParallel) {
  const auto fn = [](std::size_t i, Rng& rng) {
    // A value depending on both index and stream.
    return static_cast<double>(i) + rng.next_double();
  };
  TrialOptions serial;
  serial.trials = 64;
  serial.threads = 0;
  TrialOptions parallel = serial;
  parallel.threads = 4;
  const auto a = run_trials_collect<double>(serial, fn);
  const auto b = run_trials_collect<double>(parallel, fn);
  EXPECT_EQ(a, b);
}

TEST(TrialRunner, BaseSeedChangesResults) {
  const auto fn = [](std::size_t, Rng& rng) { return rng.next_double(); };
  TrialOptions opt1;
  opt1.trials = 16;
  opt1.base_seed = 1;
  TrialOptions opt2 = opt1;
  opt2.base_seed = 2;
  EXPECT_NE(run_trials_collect<double>(opt1, fn),
            run_trials_collect<double>(opt2, fn));
}

TEST(TrialRunner, ResultsAreTrialOrdered) {
  const auto fn = [](std::size_t i, Rng&) { return static_cast<double>(i); };
  TrialOptions options;
  options.trials = 32;
  options.threads = 4;
  const auto results = run_trials_collect<double>(options, fn);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<double>(i));
  }
}

TEST(Sweep, MeasureCobraCompletesOnExpander) {
  const Graph g = gen::complete(64);
  TrialOptions trials;
  trials.trials = 20;
  const auto m = measure_cobra(g, {}, trials);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rounds.count, 20u);
  EXPECT_GT(m.rounds.mean, 0.0);
  EXPECT_GT(m.transmissions.mean, 0.0);
}

TEST(Sweep, MeasureBipsCompletes) {
  const Graph g = gen::complete(64);
  TrialOptions trials;
  trials.trials = 20;
  const auto m = measure_bips(g, {}, trials);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rounds.count, 20u);
}

TEST(Sweep, FailedTrialsAreCounted) {
  const Graph g = gen::cycle(200);
  CobraOptions options;
  options.max_rounds = 2;  // cannot cover a 200-cycle in 2 rounds
  TrialOptions trials;
  trials.trials = 10;
  const auto m = measure_cobra(g, options, trials);
  EXPECT_EQ(m.failed, 10u);
  EXPECT_EQ(m.rounds.count, 0u);
}

TEST(Sweep, DeterministicAcrossCalls) {
  const Graph g = gen::petersen();
  TrialOptions trials;
  trials.trials = 25;
  const auto a = measure_cobra(g, {}, trials);
  const auto b = measure_cobra(g, {}, trials);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Batched lockstep trial engine (sim/batched.hpp): the seed-compatibility
// contract says every per-trial SpreadResult from a batched block is
// bitwise-identical to the scalar Process path — same RNG streams, same
// draw order, whole-struct equality. Exercised here for every supported
// process across graph families x seeds x batch sizes, plus the
// thread-count independence of run_process_trials_batched, variant
// options (fractional branching, weighted draws, curves off), the scalar
// fallback conditions, and the workspace estimator.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/faults.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "sim/batched.hpp"
#include "sim/trial_runner.hpp"

namespace cobra {
namespace {

using ProcessFactory = std::function<std::unique_ptr<Process>()>;

std::vector<Graph> test_graphs() {
  std::vector<Graph> graphs;
  Rng rng(17);
  graphs.push_back(gen::connected_random_regular(192, 6, rng));
  graphs.push_back(gen::torus({12, 12}));
  graphs.push_back(gen::barabasi_albert(160, 4, rng));
  return graphs;
}

/// Scalar reference: trial t of the canonical addressing — one reused
/// workspace, Rng::for_trial(base_seed, t), starts[t % starts.size()].
std::vector<SpreadResult> scalar_trials(const ProcessFactory& make_process,
                                        std::span<const Vertex> starts,
                                        std::uint64_t base_seed,
                                        std::size_t trials) {
  std::unique_ptr<Process> process = make_process();
  std::vector<SpreadResult> results;
  results.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng rng = Rng::for_trial(base_seed, t);
    results.push_back(process->run(rng, starts[t % starts.size()]));
  }
  return results;
}

std::vector<SpreadResult> batched_trials(const ProcessFactory& make_process,
                                         std::span<const Vertex> starts,
                                         std::uint64_t base_seed,
                                         std::size_t trials,
                                         std::size_t batch) {
  const std::unique_ptr<Process> prototype = make_process();
  const auto engine = make_batched_engine(*prototype, batch);
  EXPECT_NE(engine, nullptr);
  std::vector<SpreadResult> results(trials);
  for (std::size_t first = 0; first < trials; first += batch) {
    const std::size_t count = std::min(batch, trials - first);
    engine->run_block(base_seed, first, count, starts,
                      results.data() + first);
  }
  return results;
}

/// Whole-struct parity over 3 graph families x 3 seeds x batch 2 and 8,
/// with a trial count that exercises a partial trailing block.
void expect_bitwise_parity(
    const std::function<ProcessFactory(const Graph&)>& factory_for) {
  const std::vector<Graph> graphs = test_graphs();
  const std::vector<Vertex> starts = {0, 1, 5};
  for (const Graph& g : graphs) {
    const ProcessFactory make_process = factory_for(g);
    for (const std::uint64_t seed : {7ULL, 99ULL, 0xfeedULL}) {
      const auto scalar = scalar_trials(make_process, starts, seed, 19);
      for (const std::size_t batch : {std::size_t{2}, std::size_t{8}}) {
        const auto batched =
            batched_trials(make_process, starts, seed, 19, batch);
        ASSERT_EQ(scalar.size(), batched.size());
        for (std::size_t t = 0; t < scalar.size(); ++t) {
          EXPECT_EQ(scalar[t], batched[t])
              << g.name() << " seed=" << seed << " batch=" << batch
              << " trial=" << t;
        }
      }
    }
  }
}

TEST(BatchedParity, Cobra) {
  expect_bitwise_parity([](const Graph& g) {
    return [&g] {
      CobraOptions options;
      options.branching.k = 2;
      return std::make_unique<CobraProcess>(g, 0, options);
    };
  });
}

TEST(BatchedParity, CobraFractionalBranching) {
  expect_bitwise_parity([](const Graph& g) {
    return [&g] {
      CobraOptions options;
      options.branching = Branching::fractional(0.4);
      return std::make_unique<CobraProcess>(g, 0, options);
    };
  });
}

TEST(BatchedParity, Bips) {
  expect_bitwise_parity([](const Graph& g) {
    return [&g] {
      BipsOptions options;
      options.branching.k = 2;
      options.max_rounds = 4096;
      return std::make_unique<BipsProcess>(g, 0, options);
    };
  });
}

TEST(BatchedParity, Push) {
  expect_bitwise_parity([](const Graph& g) {
    return [&g] { return std::make_unique<PushProcess>(g, PushOptions{}); };
  });
}

TEST(BatchedParity, Pull) {
  expect_bitwise_parity([](const Graph& g) {
    return [&g] { return std::make_unique<PullProcess>(g, PullOptions{}); };
  });
}

TEST(BatchedParity, PushPull) {
  expect_bitwise_parity([](const Graph& g) {
    return
        [&g] { return std::make_unique<PushPullProcess>(g, PushPullOptions{}); };
  });
}

TEST(BatchedParity, WeightedDraws) {
  Rng rng(23);
  Graph g = gen::connected_random_regular(128, 6, rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 41);
  const std::vector<Vertex> starts = {0, 3};
  const auto factories = std::vector<ProcessFactory>{
      [&g] {
        CobraOptions options;
        options.branching.k = 2;
        options.weighted = true;
        return std::make_unique<CobraProcess>(g, 0, options);
      },
      [&g] {
        BipsOptions options;
        options.branching.k = 2;
        options.weighted = true;
        options.max_rounds = 4096;
        return std::make_unique<BipsProcess>(g, 0, options);
      },
      [&g] {
        PushOptions options;
        options.weighted = true;
        return std::make_unique<PushProcess>(g, options);
      },
      [&g] {
        PullOptions options;
        options.weighted = true;
        return std::make_unique<PullProcess>(g, options);
      },
      [&g] {
        PushPullOptions options;
        options.weighted = true;
        return std::make_unique<PushPullProcess>(g, options);
      },
  };
  for (const auto& make_process : factories) {
    const auto scalar = scalar_trials(make_process, starts, 11, 13);
    const auto batched = batched_trials(make_process, starts, 11, 13, 8);
    EXPECT_EQ(scalar, batched);
  }
}

TEST(BatchedParity, CurvesOffMatchesScalar) {
  Rng rng(5);
  const Graph g = gen::connected_random_regular(128, 6, rng);
  const std::vector<Vertex> starts = {0};
  const ProcessFactory make_process = [&g] {
    CobraOptions options;
    options.branching.k = 2;
    options.record_curves = false;
    return std::make_unique<CobraProcess>(g, 0, options);
  };
  const auto scalar = scalar_trials(make_process, starts, 3, 16);
  const auto batched = batched_trials(make_process, starts, 3, 16, 8);
  EXPECT_EQ(scalar, batched);
  EXPECT_TRUE(batched.front().curve.empty());
}

TEST(BatchedRunner, ThreadCountIndependent) {
  Rng rng(29);
  const Graph g = gen::connected_random_regular(256, 8, rng);
  const std::vector<Vertex> starts = {0, 1, 2};
  const ProcessFactory make_process = [&g] {
    CobraOptions options;
    options.branching.k = 2;
    return std::make_unique<CobraProcess>(g, 0, options);
  };
  TrialOptions options;
  options.trials = 50;
  options.base_seed = 1234;

  const auto scalar = run_process_trials(options, make_process, starts);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    options.threads = threads;
    const auto batched =
        run_process_trials_batched(options, make_process, starts, 8);
    EXPECT_EQ(scalar, batched) << "threads=" << threads;
  }
}

TEST(BatchedRunner, FallsBackWhenUnsupported) {
  Rng rng(31);
  const Graph g = gen::connected_random_regular(64, 4, rng);
  const std::vector<Vertex> starts = {0};
  const ProcessFactory make_process = [&g] {
    return std::make_unique<CobraProcess>(g, 0, CobraOptions{});
  };
  TrialOptions options;
  options.trials = 9;
  options.base_seed = 77;
  // batch = 1 has no batched engine; the runner must produce the scalar
  // results through the fallback path.
  const auto scalar = run_process_trials(options, make_process, starts);
  const auto fallback =
      run_process_trials_batched(options, make_process, starts, 1);
  EXPECT_EQ(scalar, fallback);
}

TEST(BatchedFactory, RejectsUnsupportedConfigurations) {
  Rng rng(37);
  const Graph g = gen::connected_random_regular(64, 4, rng);
  const CobraProcess process(g, 0, CobraOptions{});
  EXPECT_EQ(make_batched_engine(process, 0), nullptr);
  EXPECT_EQ(make_batched_engine(process, 1), nullptr);
  EXPECT_EQ(make_batched_engine(process, kMaxBatch + 1), nullptr);
  EXPECT_NE(make_batched_engine(process, kMaxBatch), nullptr);

  // A fault model forces the scalar path: fault streams interleave with
  // process draws and are not replayed by the batched engines.
  FaultOptions fault_options;
  fault_options.drop = 0.1;
  const FaultModel model(g.num_vertices(), fault_options);
  CobraProcess faulty(g, 0, CobraOptions{});
  faulty.set_fault_model(&model);
  EXPECT_EQ(make_batched_engine(faulty, 8), nullptr);
}

TEST(BatchedEngineApi, ReportsWorkspaceBytes) {
  Rng rng(41);
  const Graph g = gen::connected_random_regular(256, 6, rng);
  const CobraProcess process(g, 0, CobraOptions{});
  const auto engine = make_batched_engine(process, 16);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->batch(), 16u);
  // Three bit-planes + two union lists over 256 vertices at minimum.
  EXPECT_GE(engine->workspace_bytes(), 256u * (3 * 8 + 2 * 4));
}

}  // namespace
}  // namespace cobra

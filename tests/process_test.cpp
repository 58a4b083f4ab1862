// SPDX-License-Identifier: MIT
//
// Unified Process API tests: (a) the parity suite — every migrated
// steppable protocol class reproduces its legacy one-shot function
// result-for-result under fixed seeds across several graph families,
// (b) observer-captured curves are deterministic and equal to
// SpreadResult::curve, (c) factory metadata and error behaviour, and
// (d) trial-runner integration (thread-count independence).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/process.hpp"
#include "core/process_factory.hpp"
#include "core/sis.hpp"
#include "graph/generators.hpp"
#include "protocols/branching_walk.hpp"
#include "protocols/flood.hpp"
#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "protocols/random_walk.hpp"
#include "sim/trial_runner.hpp"

namespace cobra {
namespace {

/// The parity graph families: an expander, a non-transitive lattice, and
/// a dense clique — all with min degree >= 1 so every process runs.
std::vector<Graph> parity_graphs() {
  std::vector<Graph> graphs;
  Rng rng(1234);
  graphs.push_back(gen::connected_random_regular(96, 6, rng));
  graphs.push_back(gen::torus({6, 7}));
  graphs.push_back(gen::complete(48));
  return graphs;
}

constexpr std::uint64_t kSeeds[] = {7, 1001, 987654321};

// ---- parity: steppable classes vs legacy free functions ----

TEST(ProcessParity, PushMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected = run_push(g, 0, {}, legacy_rng);
      const auto process = make_process(g, "push", {});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

TEST(ProcessParity, PullMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected = run_pull(g, 0, {}, legacy_rng);
      const auto process = make_process(g, "pull", {});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

TEST(ProcessParity, PushPullMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected = run_push_pull(g, 0, {}, legacy_rng);
      const auto process = make_process(g, "push-pull", {});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

TEST(ProcessParity, FloodMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    const SpreadResult expected = run_flood(g, 1, {});
    const auto process = make_process(g, "flood", {});
    EXPECT_EQ(process->run(Rng(0), 1), expected) << g.name();
  }
}

TEST(ProcessParity, WalkMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected = run_walk_cover(g, 0, {}, legacy_rng);
      const auto process = make_process(g, "walk", {});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

TEST(ProcessParity, BranchingWalkMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const BranchingWalkResult expected =
          run_branching_walk(g, 0, {}, legacy_rng);
      const auto process = make_process(g, "branching-walk", {});
      const SpreadResult got = process->run(Rng(seed), 0);
      EXPECT_EQ(got.completed, expected.covered) << g.name();
      EXPECT_EQ(got.rounds, expected.rounds) << g.name();
      EXPECT_EQ(got.final_count, expected.final_visited) << g.name();
      EXPECT_EQ(got.total_transmissions, expected.total_messages) << g.name();
    }
  }
}

TEST(ProcessParity, SisMatchesLegacy) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      SisOptions options;
      options.max_rounds = 2000;
      Rng legacy_rng(seed);
      const SisResult expected = run_sis(g, 0, options, legacy_rng);
      const auto process =
          make_process(g, "sis", {{"max_rounds", "2000"}});
      const SpreadResult got = process->run(Rng(seed), 0);
      EXPECT_EQ(got.completed,
                expected.outcome == SisOutcome::kFullInfection)
          << g.name();
      EXPECT_EQ(got.rounds, expected.rounds) << g.name();
      EXPECT_EQ(got.final_count, expected.final_count) << g.name();
      EXPECT_EQ(got.curve, expected.curve) << g.name();
    }
  }
}

TEST(ProcessParity, CobraFactoryMatchesEngineWrapper) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected =
          run_cobra_cover(g, 0, CobraOptions{}, legacy_rng);
      const auto process = make_process(g, "cobra", {{"k", "2"}});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

TEST(ProcessParity, BipsFactoryMatchesEngineWrapper) {
  for (const Graph& g : parity_graphs()) {
    for (const std::uint64_t seed : kSeeds) {
      Rng legacy_rng(seed);
      const SpreadResult expected =
          run_bips_infection(g, 0, BipsOptions{}, legacy_rng);
      const auto process = make_process(g, "bips", {});
      EXPECT_EQ(process->run(Rng(seed), 0), expected) << g.name();
    }
  }
}

// ---- observers ----

TEST(ProcessObserver, CurveObserverMatchesResultCurve) {
  Rng graph_rng(5);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  for (const std::string& name : process_names()) {
    if (name == "walk") continue;  // visit-event curve, not reached-per-round
    const auto process = make_process(g, name, {});
    CurveObserver observer;
    process->set_observer(&observer);
    const SpreadResult result = process->run(Rng(42), 0);
    EXPECT_EQ(observer.curve(), result.curve) << name;
  }
}

TEST(ProcessObserver, CurvesAreDeterministicAcrossRunsAndReuse) {
  Rng graph_rng(6);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  for (const std::string& name : process_names()) {
    const auto process = make_process(g, name, {});
    CurveObserver first;
    process->set_observer(&first);
    const SpreadResult r1 = process->run(Rng(99), 1);
    const std::vector<std::size_t> curve1 = first.curve();
    // Same workspace, same seed: byte-identical trial.
    CurveObserver second;
    process->set_observer(&second);
    const SpreadResult r2 = process->run(Rng(99), 1);
    EXPECT_EQ(r1, r2) << name;
    EXPECT_EQ(curve1, second.curve()) << name;
    // A fresh workspace agrees too (reuse leaves no residue).
    const auto fresh = make_process(g, name, {});
    EXPECT_EQ(fresh->run(Rng(99), 1), r1) << name;
  }
}

TEST(ProcessObserver, RoundTransmissionsSumToTotal) {
  Rng graph_rng(7);
  const Graph g = gen::torus({5, 5});

  struct SumObserver final : RoundObserver {
    std::uint64_t sum = 0;
    std::size_t rounds_seen = 0;
    void on_round(const Process&, const RoundStats& stats) override {
      sum += stats.round_transmissions;
      ++rounds_seen;
      EXPECT_EQ(stats.round, rounds_seen);
    }
  };

  for (const std::string& name : {"cobra", "push", "bips"}) {
    const auto process = make_process(g, name, {});
    SumObserver observer;
    process->set_observer(&observer);
    const SpreadResult result = process->run(Rng(3), 0);
    EXPECT_EQ(observer.sum, result.total_transmissions) << name;
    EXPECT_EQ(observer.rounds_seen, result.rounds) << name;
  }
}

// ---- lifecycle / budget semantics ----

TEST(ProcessLifecycle, BudgetExhaustionIsDoneButNotCompleted) {
  const Graph g = gen::cycle(64);
  const auto process = make_process(g, "walk", {{"max_rounds", "5"}});
  const SpreadResult result = process->run(Rng(1), 0);
  EXPECT_TRUE(process->done());
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 5u);
}

TEST(ProcessLifecycle, StepwiseDrivingMatchesRun) {
  // With nothing observing the rounds (record_curve = 0), run() lets a
  // process take its own loop first (COBRA at k = 1: the walk loop); it
  // must still end exactly where stepping does, for every process.
  Rng graph_rng(8);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  std::vector<std::pair<std::string, ProcessParams>> cases = {
      {"cobra", {}}, {"cobra", {{"record_curve", "0"}, {"k", "1"}}}};
  for (const std::string& name : process_names()) {
    ProcessParams params = {{"record_curve", "0"}};
    if (name == "sis") params.emplace_back("max_rounds", "300");
    cases.emplace_back(name, params);
  }
  for (const auto& [name, params] : cases) {
    const auto a = make_process(g, name, params);
    const auto b = make_process(g, name, params);
    const SpreadResult via_run = a->run(Rng(17), 2);
    b->reset(Rng(17), 2);
    while (!b->done()) b->step();
    EXPECT_EQ(b->result(), via_run) << name;
    EXPECT_EQ(a->active_count(), b->active_count()) << name;
  }
}

// ---- factory metadata ----

TEST(ProcessFactory, RegistryNamesAndKeys) {
  const std::vector<std::string> expected = {
      "bips", "branching-walk", "cobra", "flood", "pull",
      "push", "push-pull",      "sis",   "walk"};
  EXPECT_EQ(process_names(), expected);
  for (const std::string& name : expected) {
    ASSERT_TRUE(is_process_name(name));
    const ProcessSpec* spec = find_process_spec(name);
    ASSERT_NE(spec, nullptr);
    EXPECT_STRNE(spec->summary, "");
    // Every process takes a round budget and the curve toggle.
    EXPECT_TRUE(process_has_param(name, "max_rounds")) << name;
    EXPECT_TRUE(process_has_param(name, "record_curve")) << name;
    EXPECT_FALSE(process_has_param(name, "no_such_key")) << name;
    for (const auto& param : spec->params) {
      EXPECT_TRUE(process_has_param(name, param.key))
          << name << "." << param.key;
    }
  }
  EXPECT_FALSE(is_process_name("gossip9000"));
  EXPECT_EQ(find_process_spec("gossip9000"), nullptr);
}

TEST(ProcessFactory, ErrorsNameTheProblem) {
  const Graph g = gen::cycle(8);
  EXPECT_THROW(make_process(g, "gossip9000", {}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"typo", "1"}}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"k", "2"}, {"rho", "0.5"}}),
               ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"k", "zero"}}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, {{"k", "2"}}), ProcessFactoryError);  // no name
  // Params may carry the dispatch key; it is consumed, not unknown.
  EXPECT_NO_THROW(make_process(g, {{"name", "cobra"}, {"k", "2"}}));
}

TEST(ProcessFactory, RecordCurveZeroSuppressesCurves) {
  Rng graph_rng(9);
  const Graph g = gen::connected_random_regular(32, 4, graph_rng);
  const auto process = make_process(g, "push", {{"record_curve", "0"}});
  const SpreadResult result = process->run(Rng(4), 0);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.curve.empty());
}

TEST(ProcessFactory, RecordCurveDoesNotChangeResults) {
  // The Process contract: results are independent of curve recording.
  // Exercises every registered process, cobra in particular (its
  // transmission accounting used to be gated on the curves flag).
  Rng graph_rng(11);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  for (const std::string& name : process_names()) {
    const auto with = make_process(g, name, {});
    const auto without = make_process(g, name, {{"record_curve", "0"}});
    SpreadResult a = with->run(Rng(21), 0);
    const SpreadResult b = without->run(Rng(21), 0);
    EXPECT_TRUE(b.curve.empty()) << name;
    a.curve.clear();  // the only field allowed to differ
    EXPECT_EQ(a, b) << name;
  }
}

TEST(ProcessFactory, VertexCapMustBePositive) {
  const Graph g = gen::cycle(8);
  EXPECT_THROW(make_process(g, "branching-walk", {{"vertex_cap", "0"}}),
               ProcessFactoryError);
  EXPECT_THROW(make_process(g, "branching-walk", {{"vertex_cap", "-1"}}),
               ProcessFactoryError);
}

// ---- trial runner integration ----

TEST(ProcessTrials, ThreadCountIndependent) {
  Rng graph_rng(10);
  const Graph g = gen::connected_random_regular(64, 6, graph_rng);
  std::vector<Vertex> starts(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) starts[v] = v;
  for (const std::string& name : {"cobra", "push-pull"}) {
    TrialOptions serial;
    serial.trials = 12;
    serial.base_seed = 77;
    serial.threads = 0;
    TrialOptions pooled = serial;
    pooled.threads = 4;
    const auto make = [&] { return make_process(g, name, {}); };
    const auto a = run_process_trials(serial, make, starts);
    const auto b = run_process_trials(pooled, make, starts);
    EXPECT_EQ(a, b) << name;
  }
}

}  // namespace
}  // namespace cobra

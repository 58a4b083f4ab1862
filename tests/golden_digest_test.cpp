// SPDX-License-Identifier: MIT
//
// Golden digests: FNV-1a hashes (tests/test_support.hpp) of results from
// fixed (graph, process, options, seed) cells, compared with constants
// recorded from a known-good build. Any change to a result bit — a draw
// reordered, a first-visit round off by one, a transmission miscounted —
// changes a digest. A change meant to alter a result stream re-records
// the constants it alters and says so.
//
//  (a) every registry process, per-trial SpreadResults, faults off and
//      under drop / duty-cycle / churn;
//  (b) COBRA cells: the frontier after each of the first rounds, the
//      per-round sizes, first_visit_rounds() and the result, stepped and
//      through run(), over word-boundary sizes, multi-vertex starts,
//      k = 1 / 2 / 3, fractional branching, alias draws, irregular graphs
//      and round budgets below the cover time;
//  (c) BIPS cells: the infected set after each of the first rounds,
//      infected_count() and active_count() every round and the result,
//      stepped and through run(), over the same kinds of input plus a
//      complete graph (whose every scan -> list rebuild stays wide);
//  (d) observed cells: every RoundStats a RoundObserver sees and, under
//      faults, the per-vertex tx/rx/listen counters after each trial —
//      for every registry process (also with a lossless model attached,
//      with every message lost, with drops on a duty-cycled channel and
//      with periodic churn alone), for weighted draws, for SIS with
//      fractional branching, and for the branching walk's saturated
//      even-share split and flooding on a cycle;
//  (e) graph cells: the .cgr bytes of every registry family, of instances
//      past the builder's parallel threshold, of lattices, of an
//      exp-weighted torus (v2) and of a 4-shard file (v3), each built at
//      substrate threads 1, 4 and 8;
//  (f) push-family cells: push and push-pull round by round and per
//      trial, stepped and through run(), faults off and at drop 0.2, on
//      the inputs their quiet-contact skip branches on, with uniform
//      draws (dense throughout) and alias draws (sparse while it pays) —
//      a torus that stays sparse to the end, an irregular lollipop, an
//      expander that turns dense mid-trial, a graph with an isolated
//      vertex that runs quiet rounds up to its budget, and a complete
//      graph whose counts cost more than they skip.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/faults.hpp"
#include "core/process.hpp"
#include "core/process_factory.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/weights.hpp"
#include "protocols/branching_walk.hpp"
#include "scenario/registry.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

std::string hex(std::uint64_t x) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llxULL",
                static_cast<unsigned long long>(x));
  return buffer;
}

#define EXPECT_DIGEST(actual, expected, what) \
  EXPECT_EQ(hex(actual), hex(expected)) << (what)

// ---- (a) the registry ----

/// kOff attaches no model; every other kind attaches one, kLossless with
/// nothing set (drop = 0).
enum class Faults {
  kOff,
  kDrop,
  kDuty,
  kChurn,
  kLossless,
  kDropAll,
  kDropDuty,
  kPeriodic
};

FaultOptions fault_options(Faults kind) {
  FaultOptions options;
  switch (kind) {
    case Faults::kOff:
      break;
    case Faults::kDrop:
      options.drop = 0.3;
      break;
    case Faults::kDuty:
      options.duty_period = 4;
      options.duty_awake = 3;
      break;
    case Faults::kChurn:
      options.churn = 0.1;
      options.churn_period = 8;
      options.churn_down = 1;
      break;
    case Faults::kLossless:
      break;
    case Faults::kDropAll:
      options.drop = 1.0;
      break;
    case Faults::kDropDuty:
      // Drops on a duty-cycled channel: a message to an asleep vertex can
      // be dropped or blocked, and the drop is decided first.
      options.drop = 0.2;
      options.duty_period = 4;
      options.duty_awake = 3;
      break;
    case Faults::kPeriodic:
      options.churn_period = 8;
      options.churn_down = 1;
      break;
  }
  return options;
}

/// Four trials on each of an expander and a torus, one workspace per
/// graph reused across trials.
std::uint64_t registry_digest(const std::string& name, Faults kind) {
  Rng graph_rng(2024);
  const std::vector<Graph> graphs = {
      gen::connected_random_regular(96, 6, graph_rng), gen::torus({6, 7})};
  Fnv1a hash;
  for (const Graph& g : graphs) {
    const FaultModel model(g.num_vertices(), fault_options(kind));
    const auto process = make_process(g, name, {{"max_rounds", "2048"}});
    if (kind != Faults::kOff) process->set_fault_model(&model);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto start = static_cast<Vertex>(seed * 29 % g.num_vertices());
      hash.add(process->run(Rng(seed + 100), start));
    }
  }
  return hash.value();
}

struct RegistryGolden {
  const char* name;
  std::uint64_t off, drop, duty, churn;
};

TEST(GoldenDigest, EveryRegistryProcessWithAndWithoutFaults) {
  const RegistryGolden golden[] = {
      {"bips",
       0xde59609bdc4ba477ULL, 0x87dc063f850a8322ULL,
       0x0ee2eaa93f0ca9cbULL, 0x39aa99a099287564ULL},
      {"branching-walk",
       0xbae68d740a5c552cULL, 0x4ff40ce573c9c0fdULL,
       0x6d7c0873e9fcb07aULL, 0xee6ae17575f0edd3ULL},
      {"cobra",
       0x734e9c73d64acb29ULL, 0xe363bcc578c8ed65ULL,
       0xd28717ff9eb2a863ULL, 0x695e280296233d8fULL},
      {"flood",
       0x20aa7ec2b4d10f81ULL, 0xf0079ffdfa9b0848ULL,
       0x7e3f49e369c3e6f3ULL, 0x37f1ae778d73cb98ULL},
      {"pull",
       0xff76f6873a51d1b4ULL, 0x68c7b6ffff99d87bULL,
       0x950063bbe211f549ULL, 0xde0c4672cb80b70fULL},
      {"push",
       0xbad22ae1bfdf2e53ULL, 0xc7997030dc7d2733ULL,
       0x43dd721628e78f21ULL, 0xeb8217e7090f66cbULL},
      {"push-pull",
       0xf9aec98bd71cb792ULL, 0x8fda96d1534e8d67ULL,
       0xea1afa3c45db9138ULL, 0x59874c836037acb3ULL},
      {"sis",
       0xb21ea2458671af46ULL, 0x05d1b20d101942c3ULL,
       0xa01c530ae186dc99ULL, 0xa7c6db27ae46dce6ULL},
      {"walk",
       0x29bcb95ca2ef6406ULL, 0x4d48afc5454438d2ULL,
       0x698c70b038c26a83ULL, 0xf4dd3f372d311fa1ULL},
  };
  ASSERT_EQ(std::size(golden), process_names().size());
  for (const RegistryGolden& g : golden) {
    EXPECT_DIGEST(registry_digest(g.name, Faults::kOff), g.off, g.name);
    EXPECT_DIGEST(registry_digest(g.name, Faults::kDrop), g.drop, g.name);
    EXPECT_DIGEST(registry_digest(g.name, Faults::kDuty), g.duty, g.name);
    EXPECT_DIGEST(registry_digest(g.name, Faults::kChurn), g.churn, g.name);
  }
}

// ---- (b) COBRA cells ----

/// Frontiers are hashed whole for this many rounds, sizes for every round.
constexpr std::size_t kFrontierRounds = 24;

void add_final_state(Fnv1a& hash, const CobraProcess& process) {
  hash.add(process.result());
  hash.add_range(process.first_visit_rounds());
  hash.add_range(process.frontier());
}

/// Three seeds through one reused workspace: stepped (frontiers, sizes and
/// the final state), then through run() (the final state).
std::uint64_t cobra_digest(const Graph& g, const std::vector<Vertex>& starts,
                           const CobraOptions& options,
                           const FaultOptions* faults = nullptr) {
  Fnv1a hash;
  CobraProcess process(g, starts, options);
  const FaultModel model(g.num_vertices(),
                         faults != nullptr ? *faults : FaultOptions{});
  if (faults != nullptr) process.set_fault_model(&model);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    process.reset(Rng(seed), starts);
    while (!process.done()) {
      process.step();
      if (process.round() <= kFrontierRounds) {
        hash.add_range(process.frontier());
      }
      hash.add(process.frontier_size());
      hash.add(process.visited_count());
    }
    add_final_state(hash, process);
    process.run(Rng(seed), starts);
    add_final_state(hash, process);
  }
  return hash.value();
}

Graph expander(std::size_t n) {
  Rng rng(n);
  return gen::connected_random_regular(n, 8, rng);
}

CobraOptions fixed_k(unsigned k, bool curves = true) {
  CobraOptions options;
  options.branching = Branching::fixed(k);
  options.record_curves = curves;
  return options;
}

TEST(GoldenDigest, CobraWordBoundarySizesStartingAtTheLastVertex) {
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {63, 0x6d733ed505a19abcULL},
      {64, 0xcfaf4368f0d13888ULL},
      {65, 0x7976c803be18d2a2ULL},
      {4095, 0xb47faa0024eecbc9ULL},
      {4096, 0x3aeeaa973ba396efULL},
      {4097, 0xc06d7153a4ac937cULL},
  };
  for (const auto& [n, expected] : golden) {
    const Graph g = expander(n);
    const std::vector<Vertex> last = {static_cast<Vertex>(n - 1)};
    EXPECT_DIGEST(cobra_digest(g, last, fixed_k(2)), expected,
                  "n = " + std::to_string(n));
  }
}

TEST(GoldenDigest, CobraTwoVertexStart) {
  const Graph g = expander(4096);
  EXPECT_DIGEST(cobra_digest(g, {4000, 5}, fixed_k(2)), 0x803a2b95615f908bULL,
                "k = 2");
  EXPECT_DIGEST(cobra_digest(g, {4000, 5}, fixed_k(1, false)),
                0x0758ec53f52cbb56ULL, "k = 1");
}

TEST(GoldenDigest, CobraK1SteppedWithCurvesAndThroughTheWalkLoop) {
  const Graph g = expander(1024);
  EXPECT_DIGEST(cobra_digest(g, {7}, fixed_k(1, true)), 0xb86e6dabb77ef86fULL,
                "curves");
  EXPECT_DIGEST(cobra_digest(g, {7}, fixed_k(1, false)), 0x185e23810b9180dfULL,
                "walk loop");
}

TEST(GoldenDigest, CobraK3AndFractionalBranching) {
  const Graph g = expander(4096);
  EXPECT_DIGEST(cobra_digest(g, {1}, fixed_k(3)), 0x7067d3e9289ba361ULL,
                "k = 3");
  CobraOptions fractional;
  fractional.branching = Branching::fractional(0.35);
  EXPECT_DIGEST(cobra_digest(g, {1}, fractional), 0x44c8bfb45e6cff37ULL,
                "rho = 0.35");
}

TEST(GoldenDigest, CobraAliasDrawsOnAnExpWeightedTorus) {
  Graph g = gen::torus({40, 40});
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  const std::pair<unsigned, std::uint64_t> golden[] = {
      {1, 0x46141cc5b0b4561bULL}, {2, 0x19b6fe3be2c44508ULL}};
  for (const auto& [k, expected] : golden) {
    CobraOptions weighted = fixed_k(k, false);
    weighted.weighted = true;
    EXPECT_DIGEST(cobra_digest(g, {0}, weighted), expected,
                  "k = " + std::to_string(k));
  }
}

TEST(GoldenDigest, CobraLollipopAndCycle) {
  const Graph lollipop = gen::lollipop(40, 60);
  const Graph cycle = gen::cycle(600);
  EXPECT_DIGEST(cobra_digest(lollipop, {0}, fixed_k(1)), 0x0ac8eeedf5f23373ULL,
                "lollipop k=1");
  EXPECT_DIGEST(cobra_digest(lollipop, {0}, fixed_k(2)), 0x8af470f4d45f70c8ULL,
                "lollipop k=2");
  EXPECT_DIGEST(cobra_digest(lollipop, {99}, fixed_k(3)), 0x8b965ea5048b863dULL,
                "lollipop k=3");
  EXPECT_DIGEST(cobra_digest(cycle, {0}, fixed_k(1)), 0xb6b9f09712526528ULL,
                "cycle k=1");
  EXPECT_DIGEST(cobra_digest(cycle, {0}, fixed_k(2)), 0xc6aedc913a168c5aULL,
                "cycle k=2");
}

TEST(GoldenDigest, CobraRoundBudgetBelowTheCoverTime) {
  const Graph g = expander(4096);
  CobraOptions k2 = fixed_k(2);
  k2.max_rounds = 5;
  EXPECT_DIGEST(cobra_digest(g, {3}, k2), 0x1cb1b2b90a6f5a2fULL, "k = 2");
  CobraOptions k1 = fixed_k(1, false);
  k1.max_rounds = 200;
  EXPECT_DIGEST(cobra_digest(g, {3}, k1), 0x5be6072088304ff1ULL, "k = 1");
}

TEST(GoldenDigest, CobraUnderFaults) {
  Graph torus = gen::torus({40, 40});
  gen::generate_weights(torus, gen::WeightKind::kExp, 17);
  const Graph g = expander(1024);
  FaultOptions drop;
  drop.drop = 0.3;
  const FaultOptions duty = fault_options(Faults::kDuty);
  const FaultOptions churn = fault_options(Faults::kChurn);
  CobraOptions weighted = fixed_k(2);
  weighted.weighted = true;
  EXPECT_DIGEST(cobra_digest(torus, {0}, fixed_k(2), &drop),
                0x0bab9a34d7ad0eecULL, "torus");
  EXPECT_DIGEST(cobra_digest(torus, {0}, weighted, &drop),
                0x651ed1d6124b1316ULL, "weighted");
  EXPECT_DIGEST(cobra_digest(g, {9}, fixed_k(2), &duty), 0xe7bd37d6693d3a8dULL,
                "duty");
  EXPECT_DIGEST(cobra_digest(g, {9, 1023}, fixed_k(1), &churn),
                0x134b333b91ca2c40ULL, "churn");
}

// ---- (c) BIPS cells ----

std::vector<Vertex> infected_set(const BipsProcess& process) {
  std::vector<Vertex> infected;
  for (Vertex v = 0; v < process.graph().num_vertices(); ++v) {
    if (process.is_infected(v)) infected.push_back(v);
  }
  return infected;
}

/// Three seeds through one reused workspace: stepped (infected sets,
/// infected and active counts, the result), then through run().
std::uint64_t bips_digest(const Graph& g, const std::vector<Vertex>& sources,
                          const BipsOptions& options,
                          const FaultOptions* faults = nullptr) {
  Fnv1a hash;
  BipsProcess process(g, sources, options);
  const FaultModel model(g.num_vertices(),
                         faults != nullptr ? *faults : FaultOptions{});
  if (faults != nullptr) process.set_fault_model(&model);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    process.reset(Rng(seed), sources);
    while (!process.done()) {
      process.step();
      if (process.round() <= kFrontierRounds) {
        hash.add_range(infected_set(process));
      }
      hash.add(process.infected_count());
      hash.add(process.active_count());
    }
    hash.add(process.result());
    hash.add_range(infected_set(process));
    hash.add(process.run(Rng(seed), sources));
  }
  return hash.value();
}

BipsOptions bips_k(unsigned k, bool curve = true) {
  BipsOptions options;
  options.branching = Branching::fixed(k);
  options.record_curve = curve;
  return options;
}

TEST(GoldenDigest, BipsWordBoundarySizesWithTheLastVertexAsSource) {
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {63, 0x3e419b67dcefcfefULL},
      {64, 0x94218e519d93578aULL},
      {65, 0xc18558627c218a6cULL},
      {4095, 0xc665885b4d0867efULL},
      {4096, 0xcf026f3eba5b0275ULL},
      {4097, 0xb964f889428114e0ULL},
  };
  for (const auto& [n, expected] : golden) {
    const Graph g = expander(n);
    const std::vector<Vertex> last = {static_cast<Vertex>(n - 1)};
    EXPECT_DIGEST(bips_digest(g, last, bips_k(2)), expected,
                  "n = " + std::to_string(n));
  }
}

TEST(GoldenDigest, BipsSourceSets) {
  const Graph g = expander(4096);
  EXPECT_DIGEST(bips_digest(g, {4000, 5}, bips_k(2)), 0x9a6cde9a499ee68aULL,
                "two sources");
  EXPECT_DIGEST(bips_digest(g, {300, 7, 300}, bips_k(2, false)),
                0x070e6a3a6bf3e1daULL, "duplicate");
}

TEST(GoldenDigest, BipsK3AndFractionalBranching) {
  const Graph g = expander(4096);
  EXPECT_DIGEST(bips_digest(g, {1}, bips_k(3)), 0xc78b2e0726216d5eULL,
                "k = 3");
  BipsOptions fractional;
  fractional.branching = Branching::fractional(0.35);
  EXPECT_DIGEST(bips_digest(g, {1}, fractional), 0x69c4eeedf7973c55ULL,
                "rho = 0.35");
}

TEST(GoldenDigest, BipsK1OnASmallGraphAndUnderARoundBudget) {
  EXPECT_DIGEST(bips_digest(expander(64), {3}, bips_k(1)),
                0xe2597ab04574c852ULL, "n = 64");
  BipsOptions budget = bips_k(1, false);
  budget.max_rounds = 200;
  EXPECT_DIGEST(bips_digest(expander(4096), {3}, budget),
                0x6df8d0e781d0e1c5ULL, "n = 4096");
}

TEST(GoldenDigest, BipsAliasDrawsOnAnExpWeightedTorus) {
  Graph g = gen::torus({40, 40});
  gen::generate_weights(g, gen::WeightKind::kExp, 17);
  const std::pair<unsigned, std::uint64_t> golden[] = {
      {1, 0xa1a0a46b2f9b6cbcULL}, {2, 0x02ae54fb47e4ebb8ULL}};
  for (const auto& [k, expected] : golden) {
    BipsOptions weighted = bips_k(k, false);
    weighted.weighted = true;
    weighted.max_rounds = 1000;
    EXPECT_DIGEST(bips_digest(g, {0}, weighted), expected,
                  "k = " + std::to_string(k));
  }
}

TEST(GoldenDigest, BipsLollipopCycleAndCompleteGraph) {
  const Graph lollipop = gen::lollipop(40, 60);
  EXPECT_DIGEST(bips_digest(lollipop, {0}, bips_k(2)), 0xfd6bc8e4a0cb3ea3ULL,
                "lollipop from 0");
  EXPECT_DIGEST(bips_digest(lollipop, {99}, bips_k(2)), 0x86b3032bc8a39bb3ULL,
                "lollipop from 99");
  // Seed 12 switches from scan to list mode four times: the rebuild ration.
  EXPECT_DIGEST(bips_digest(lollipop, {99}, bips_k(1)), 0x1e71bae5e39e5f43ULL,
                "lollipop k = 1");
  EXPECT_DIGEST(bips_digest(gen::cycle(600), {0}, bips_k(2)),
                0xd074a7faa4d5ab2fULL, "cycle");
  EXPECT_DIGEST(bips_digest(gen::complete(256), {0}, bips_k(2)),
                0x8124318eaf2a700fULL, "complete");
}

TEST(GoldenDigest, BipsRoundBudgetBelowTheInfectionTime) {
  BipsOptions k2 = bips_k(2);
  k2.max_rounds = 5;
  EXPECT_DIGEST(bips_digest(expander(4096), {3}, k2), 0xd1e841ad2e111911ULL,
                "k = 2");
}

TEST(GoldenDigest, BipsUnderFaults) {
  Graph torus = gen::torus({40, 40});
  gen::generate_weights(torus, gen::WeightKind::kExp, 17);
  const Graph g = expander(1024);
  FaultOptions drop;
  drop.drop = 0.3;
  const FaultOptions duty = fault_options(Faults::kDuty);
  const FaultOptions churn = fault_options(Faults::kChurn);
  // A round budget far above these infection times: a change that keeps
  // BIPS from finishing under faults fails in seconds, not hours.
  BipsOptions k2 = bips_k(2);
  k2.max_rounds = 4096;
  BipsOptions weighted = k2;
  weighted.weighted = true;
  EXPECT_DIGEST(bips_digest(torus, {0}, k2, &drop), 0x63c56abc89c94912ULL,
                "torus");
  EXPECT_DIGEST(bips_digest(torus, {0}, weighted, &drop), 0xf3e6eacee32c7828ULL,
                "weighted");
  EXPECT_DIGEST(bips_digest(g, {9}, k2, &duty), 0x352cfe4d3941d134ULL, "duty");
  EXPECT_DIGEST(bips_digest(g, {9, 1023}, k2, &churn), 0xefd0f96f0bf3ed34ULL,
                "churn");
}

// ---- (d) observed cells ----

/// Hashes every RoundStats of a trial. With `splits` set, also counts
/// the rounds in which the branching walk took its saturated even-share
/// split: some vertex held >= 64 * degree particles at the round's start
/// and could send.
class StatsHash final : public RoundObserver {
 public:
  StatsHash(Fnv1a& hash, bool splits) : hash_(&hash), splits_(splits) {}

  void on_reset(const Process& process) override { note_splits(process); }

  void on_round(const Process& process, const RoundStats& s) override {
    hash_->add(s.round);
    hash_->add(s.active);
    hash_->add(s.reached);
    hash_->add(s.round_transmissions);
    hash_->add(s.total_transmissions);
    hash_->add(s.round_delivered);
    hash_->add(s.total_delivered);
    hash_->add(s.total_dropped);
    hash_->add(s.total_blocked);
    hash_->add_double(s.energy);
    if (splits_) {
      const FaultSession* faults = process.fault_session();
      for (const Vertex v : eligible_) {
        if (faults == nullptr || faults->can_send(v)) {
          ++split_rounds_;
          break;
        }
      }
      note_splits(process);
    }
  }

  std::size_t split_rounds() const noexcept { return split_rounds_; }

 private:
  void note_splits(const Process& process) {
    if (!splits_) return;
    const auto& walk = dynamic_cast<const BranchingWalkProcess&>(process);
    const Graph& g = walk.graph();
    eligible_.clear();
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (walk.particles_at(v) >= 64 * g.degree(v)) eligible_.push_back(v);
    }
  }

  Fnv1a* hash_;
  bool splits_;
  std::vector<Vertex> eligible_;
  std::size_t split_rounds_ = 0;
};

/// Four trials of `name` on each graph, one workspace per graph, with a
/// StatsHash attached: every round's stats, each trial's result and,
/// under faults, every vertex's tx/rx/listen counters after the trial.
/// Adds the trials' even-share split rounds to *split_rounds if given.
std::uint64_t observed_digest(const std::vector<Graph>& graphs,
                              const std::string& name,
                              const ProcessParams& params, Faults kind,
                              std::size_t* split_rounds = nullptr) {
  Fnv1a hash;
  for (const Graph& g : graphs) {
    const FaultModel model(g.num_vertices(), fault_options(kind));
    const auto process = make_process(g, name, params);
    if (kind != Faults::kOff) process->set_fault_model(&model);
    StatsHash stats(hash, split_rounds != nullptr);
    process->set_observer(&stats);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto start = static_cast<Vertex>(seed * 29 % g.num_vertices());
      hash.add(process->run(Rng(seed + 100), start));
      if (const FaultSession* faults = process->fault_session()) {
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          hash.add(faults->tx(v));
          hash.add(faults->rx(v));
          hash.add(faults->listen(v));
        }
      }
    }
    if (split_rounds != nullptr) *split_rounds += stats.split_rounds();
  }
  return hash.value();
}

std::vector<Graph> registry_graphs() {
  Rng graph_rng(2024);
  std::vector<Graph> graphs;
  graphs.push_back(gen::connected_random_regular(96, 6, graph_rng));
  graphs.push_back(gen::torus({6, 7}));
  return graphs;
}

TEST(GoldenDigest, EveryRegistryProcessRoundByRoundAndPerVertex) {
  const RegistryGolden golden[] = {
      {"bips",
       0x5ec71dbc6a562372ULL, 0xbd6958bff5ae003bULL,
       0x2e4889262194d7a5ULL, 0x6d426b9ce0a799d5ULL},
      {"branching-walk",
       0x92d91ad7e92ac7e6ULL, 0xe5ff81c77d558f00ULL,
       0xeae313b4b465d0ddULL, 0xfddcc69a8dd3ba58ULL},
      {"cobra",
       0x83cb474ade7d7b25ULL, 0x7f06039a42eff716ULL,
       0x2cbaec8512255d4dULL, 0x744d1835efa8af08ULL},
      {"flood",
       0xba137b9e46af95d9ULL, 0x3568ef70fdb8c418ULL,
       0x3943109c62dfd922ULL, 0x4a1c2c0a437c7cf0ULL},
      {"pull",
       0xffc8136c7fa609d8ULL, 0x5925ee0e1ce0badaULL,
       0x72a26f1e32a44b91ULL, 0x51d8ca740d7b166eULL},
      {"push",
       0xb3f559e6763f34f5ULL, 0xddd7c343ac03c99bULL,
       0xc3d6f021d1c9e2e9ULL, 0x91191dbffa2f4ff8ULL},
      {"push-pull",
       0xb7972029e61ce59eULL, 0x3f3bbe2b51916a0eULL,
       0xe6a648f46a7b4492ULL, 0xf6e4b8df5721b814ULL},
      {"sis",
       0xd290681f33b6b4aeULL, 0x083165982cf9196cULL,
       0xf13d3058b61b8478ULL, 0x3483afcab4a2fb1bULL},
      {"walk",
       0xa4cc25a2deade925ULL, 0x88975403035d03c4ULL,
       0x3cb708a7926af7ddULL, 0x66e3d45d016efcd6ULL},
  };
  ASSERT_EQ(std::size(golden), process_names().size());
  const std::vector<Graph> graphs = registry_graphs();
  const ProcessParams params = {{"max_rounds", "2048"}};
  for (const RegistryGolden& g : golden) {
    EXPECT_DIGEST(observed_digest(graphs, g.name, params, Faults::kOff), g.off,
                  std::string(g.name) + " off");
    EXPECT_DIGEST(observed_digest(graphs, g.name, params, Faults::kDrop),
                  g.drop, std::string(g.name) + " drop");
    EXPECT_DIGEST(observed_digest(graphs, g.name, params, Faults::kDuty),
                  g.duty, std::string(g.name) + " duty");
    EXPECT_DIGEST(observed_digest(graphs, g.name, params, Faults::kChurn),
                  g.churn, std::string(g.name) + " churn");
  }
}

/// The fault kinds a round's cost depends on: a model attached with
/// nothing set, every message lost (under a short round budget, since
/// nothing spreads), drops together with a duty cycle, and periodic churn
/// alone.
TEST(GoldenDigest, EveryRegistryProcessLosslessAllLostDropDutyAndPeriodic) {
  struct Cell {
    const char* name;
    std::uint64_t lossless, drop_all, drop_duty, periodic;
  };
  const Cell golden[] = {
      {"bips",
       0x210c49801e90710aULL, 0x34a21394b6c20cddULL,
       0x668e99cec0c01cd7ULL, 0x7855f862ac9b65abULL},
      {"branching-walk",
       0xce897d77b335ed0eULL, 0x859710171fb69385ULL,
       0x17682d830110c2bbULL, 0x97568c1cca00c2c3ULL},
      {"cobra",
       0x1c195edd8f8d1f4dULL, 0xf54281cd20f99fedULL,
       0xeb1f36b366fda8a6ULL, 0x9ed995a5561127e6ULL},
      {"flood",
       0x127773e4b2ef5d8cULL, 0xb98e6135f3a5b0fdULL,
       0x5411d068cfecc48fULL, 0x65ffd71ee6726b08ULL},
      {"pull",
       0xb198e5813d539a5cULL, 0x68d0a7f6c4b7264dULL,
       0xb88567c9ce3970f1ULL, 0x09822e779e76730eULL},
      {"push",
       0xe056b9f82bdfec44ULL, 0x4f328d389aa3ca35ULL,
       0x2993fabca0b385b9ULL, 0xc050a16530cc6a1fULL},
      {"push-pull",
       0xa43f35c1f653943fULL, 0x4f522f31c161c995ULL,
       0xc80b19e64211972eULL, 0xfca435991d2c9d9aULL},
      {"sis",
       0x6458a394a666400dULL, 0xfa7559e807e64e65ULL,
       0x681cc1c20511e799ULL, 0xc9da5383c9aa95b4ULL},
      {"walk",
       0x60ab5015285297ecULL, 0xcde5d1cf89881865ULL,
       0x272ec140a667f4b5ULL, 0x3ef011b0da61203fULL},
  };
  ASSERT_EQ(std::size(golden), process_names().size());
  const std::vector<Graph> graphs = registry_graphs();
  const ProcessParams params = {{"max_rounds", "2048"}};
  const ProcessParams short_budget = {{"max_rounds", "24"}};
  for (const Cell& c : golden) {
    const std::string name = c.name;
    EXPECT_DIGEST(observed_digest(graphs, name, params, Faults::kLossless),
                  c.lossless, name + " lossless");
    EXPECT_DIGEST(
        observed_digest(graphs, name, short_budget, Faults::kDropAll),
        c.drop_all, name + " drop 1");
    EXPECT_DIGEST(observed_digest(graphs, name, params, Faults::kDropDuty),
                  c.drop_duty, name + " drop 0.2 duty 3/4");
    EXPECT_DIGEST(observed_digest(graphs, name, params, Faults::kPeriodic),
                  c.periodic, name + " periodic churn 8/1");
  }
}

TEST(GoldenDigest, WeightedDrawsOnAnExpWeightedTorus) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::torus({40, 40}));
  gen::generate_weights(graphs.front(), gen::WeightKind::kExp, 17);
  struct Cell {
    const char* name;
    std::uint64_t off, drop;
  };
  const Cell golden[] = {
      {"push", 0xcbd5ca193078a904ULL, 0x0e3289938b36c086ULL},
      {"pull", 0xaa1c42f1359f04a8ULL, 0xe409ff4c90dd1c3fULL},
      {"push-pull", 0x48513a964dc4f346ULL, 0x79dc67ffc4f3be4aULL},
      {"walk", 0xf1c667df1d41a3d7ULL, 0x844faa160b0f8287ULL},
      {"branching-walk", 0xfbfed9f8b2fe0cb3ULL, 0x8de07ba35ebebc24ULL},
      {"sis", 0x3d6c6574b8be6ef1ULL, 0x855d8eddeb8cdff1ULL},
  };
  const ProcessParams params = {{"weighted", "1"}, {"max_rounds", "2048"}};
  for (const Cell& c : golden) {
    EXPECT_DIGEST(observed_digest(graphs, c.name, params, Faults::kOff), c.off,
                  std::string("weighted ") + c.name + " off");
    EXPECT_DIGEST(observed_digest(graphs, c.name, params, Faults::kDrop),
                  c.drop, std::string("weighted ") + c.name + " drop");
  }
}

TEST(GoldenDigest, SisFractionalBranching) {
  const std::vector<Graph> graphs = registry_graphs();
  const ProcessParams params = {{"rho", "0.35"}, {"max_rounds", "2048"}};
  EXPECT_DIGEST(observed_digest(graphs, "sis", params, Faults::kOff),
                0x7d39d303cf345d0eULL, "off");
  EXPECT_DIGEST(observed_digest(graphs, "sis", params, Faults::kDrop),
                0xb96dbabd83e18ab2ULL, "drop");
}

TEST(GoldenDigest, BranchingWalkEvenShareSplitAndFloodOnACycle) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::cycle(600));
  struct Cell {
    Faults kind;
    const char* what;
    std::uint64_t branching_walk, flood;
  };
  const Cell golden[] = {
      {Faults::kOff, "off", 0xe877ece1b2756e7cULL, 0xbd3be45d349ac045ULL},
      {Faults::kDrop, "drop", 0x249e94d48ed4d610ULL, 0x7cec445b6ae1402cULL},
      {Faults::kDuty, "duty", 0xfd8ba470165e01e4ULL, 0x0bccc5dd890da326ULL},
      {Faults::kChurn, "churn", 0x5587c3ad8912066cULL, 0x0b4c8fb8a91aef04ULL},
  };
  for (const Cell& c : golden) {
    std::size_t split_rounds = 0;
    EXPECT_DIGEST(
        observed_digest(graphs, "branching-walk", {}, c.kind, &split_rounds),
        c.branching_walk, std::string("cycle branching-walk ") + c.what);
    EXPECT_GT(split_rounds, 0u) << c.what;
    EXPECT_DIGEST(observed_digest(graphs, "flood", {}, c.kind), c.flood,
                  std::string("cycle flood ") + c.what);
  }
}

// ---- (e) graph cells ----

/// FNV-1a of the file write_cgr makes of `g`.
std::uint64_t cgr_digest(const Graph& g, const CgrWriteOptions& options) {
  const std::string path = test_temp_dir() + "digest.cgr";
  write_cgr(g, path, options);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Fnv1a hash;
  hash.add_bytes(bytes);
  return hash.value();
}

struct GraphCell {
  scenario::ParamMap params;
  std::uint64_t digest;
};

/// Builds every cell through the registry from one fixed seed at
/// substrate threads 1, 4 and 8; the .cgr bytes must agree across thread
/// counts and match the recorded digest.
void expect_graph_digests(const std::vector<GraphCell>& cells,
                          const CgrWriteOptions& options = {}) {
  struct ThreadReset {
    ~ThreadReset() { GraphBuilder::set_default_threads(0); }
  } reset;
  for (const GraphCell& cell : cells) {
    const std::string what = scenario::canonical_params(cell.params);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      GraphBuilder::set_default_threads(threads);
      Rng rng(4242);
      const Graph g = scenario::build_graph(cell.params, rng);
      EXPECT_DIGEST(cgr_digest(g, options), cell.digest,
                    what + " at " + std::to_string(threads) + " threads");
    }
  }
}

TEST(GoldenDigest, CgrBytesOfEveryRegistryFamily) {
  const std::vector<GraphCell> cells = {
      {{{"family", "barabasi_albert"}, {"n", "300"}, {"attach", "3"}},
       0x869e67cee09b5a85ULL},
      {{{"family", "barbell"}, {"clique", "6"}, {"bridge", "3"}},
       0xbae22c0e036816b6ULL},
      {{{"family", "binary_tree"}, {"levels", "6"}}, 0x43a41ccd191ea7baULL},
      {{{"family", "circulant"}, {"n", "64"}, {"offsets", "1x5x12"}},
       0xeec7ae1cb946dcfcULL},
      {{{"family", "complete"}, {"n", "20"}}, 0x0e7bc8ceaac7d878ULL},
      {{{"family", "complete_bipartite"}, {"a", "5"}, {"b", "7"}},
       0xf29be0a8b7d9ed78ULL},
      {{{"family", "connected_random_regular"}, {"n", "128"}, {"r", "5"}},
       0xf6a0afd7cd816090ULL},
      {{{"family", "cycle"}, {"n", "50"}}, 0xe5d78d77af0b78f7ULL},
      {{{"family", "erdos_renyi"}, {"n", "500"}, {"p", "0.02"}},
       0xf19c4aa749b8ad39ULL},
      {{{"family", "generalized_petersen"}, {"n", "10"}, {"k", "3"}},
       0xc4ac7cebcc66eafeULL},
      {{{"family", "grid"}, {"dims", "5x4x3"}, {"periodic", "0"}},
       0xa3488d714233a7d4ULL},
      {{{"family", "hypercube"}, {"d", "7"}}, 0x0950ce81394cf150ULL},
      {{{"family", "kneser"}, {"n_set", "7"}, {"k_subset", "2"}},
       0xe2068b9640dc225aULL},
      {{{"family", "lollipop"}, {"clique", "8"}, {"path", "12"}},
       0xbea1626abb11274cULL},
      {{{"family", "margulis"}, {"m", "16"}}, 0x2275e4289978559cULL},
      {{{"family", "paley"}, {"q", "61"}}, 0xd93e1d4c4c162366ULL},
      {{{"family", "path"}, {"n", "40"}}, 0xc428cd559391c78eULL},
      {{{"family", "petersen"}}, 0xb4c81e4ca7bb9e4fULL},
      {{{"family", "random_geometric"}, {"n", "400"}, {"radius", "0.08"}},
       0x5cbcfb426ed9a906ULL},
      {{{"family", "random_regular"}, {"n", "256"}, {"r", "8"}},
       0xeb775ba187f07ae1ULL},
      {{{"family", "star"}, {"n", "30"}}, 0x26230f5a0e45162aULL},
      {{{"family", "torus"}, {"dims", "8x6x5"}}, 0x0f891d7826c48945ULL},
      {{{"family", "watts_strogatz"}, {"n", "200"}, {"k", "6"},
        {"beta", "0.2"}},
       0xd222749a9dfa85a5ULL},
  };
  expect_graph_digests(cells);
  // A family added to the registry needs a cell here; family = file reads
  // what another family wrote.
  std::set<std::string> covered;
  for (const GraphCell& cell : cells) {
    covered.insert(*scenario::find_param(cell.params, "family"));
  }
  for (const std::string& family : scenario::graph_families()) {
    if (family != "file") EXPECT_TRUE(covered.count(family)) << family;
  }
}

TEST(GoldenDigest, CgrBytesPastTheParallelAssemblyThreshold) {
  expect_graph_digests({
      {{{"family", "torus"}, {"dims", "256x256"}}, 0xe151ba8fd4897ef1ULL},
      {{{"family", "grid"}, {"dims", "200x300"}}, 0xd60fd60cfe6bd516ULL},
      {{{"family", "hypercube"}, {"d", "13"}}, 0xa2c8a55ce5a6f8cbULL},
      {{{"family", "erdos_renyi"}, {"n", "16384"}, {"p", "0.00048828125"}},
       0xa7d555d8a2adf115ULL},
  });
}

TEST(GoldenDigest, CgrBytesOfLattices) {
  expect_graph_digests({
      {{{"family", "torus"}, {"dims", "9x9"}}, 0xddf147dcf614959aULL},
      {{{"family", "torus"}, {"dims", "33x33"}}, 0xb211e08c65b7948cULL},
      {{{"family", "torus"}, {"dims", "64x64"}}, 0xf2bfe42d4e54e5faULL},
      {{{"family", "grid"}, {"dims", "9x7"}}, 0x7dc00118d88c6be6ULL},
      {{{"family", "grid"}, {"dims", "33x7"}}, 0xd17b74e59a79e10dULL},
      {{{"family", "grid"}, {"dims", "64x7"}}, 0x2ed57ae7b8ca42f7ULL},
      {{{"family", "torus"}, {"dims", "12x9"}}, 0x494e5e999f5eb8b1ULL},
      {{{"family", "hypercube"}, {"d", "6"}}, 0x6df5e5d2505d47edULL},
      {{{"family", "hypercube"}, {"d", "11"}}, 0x72cc4e49c2989a7dULL},
  });
}

TEST(GoldenDigest, CgrBytesOfAnExpWeightedTorusAndAFourShardFile) {
  // gossip_faults' graph: weights make the file a v2.
  expect_graph_digests({
      {{{"family", "torus"}, {"dims", "128x128"}, {"weight", "exp"}},
       0xe2c076e39df7e365ULL},
  });
  CgrWriteOptions sharded;
  sharded.shards = 4;
  expect_graph_digests(
      {
          {{{"family", "erdos_renyi"}, {"n", "5000"}, {"p", "0.002"}},
           0x155fc2abab82272dULL},
          {{{"family", "torus"}, {"dims", "64x48"}, {"weight", "exp"}},
           0x21c8f09ea7807a1dULL},
      },
      sharded);
}

// ---- (f) push-family cells ----

/// `g` plus one isolated vertex (the last): push and push-pull never
/// complete on it, so a trial runs to its round budget.
Graph with_isolated_vertex(const Graph& g) {
  GraphBuilder builder(g.num_vertices() + 1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (v < w) builder.add_edge(v, w);
    }
  }
  return builder.build(g.name() + "+isolated");
}

/// Three seeds of `name` through one workspace, faults off (drop = 0) or
/// at `drop`: stepped, then through run(), each with a StatsHash attached
/// (every RoundStats, the result and, under faults, every vertex's
/// tx/rx/listen counters), then through run() unobserved (the result).
std::uint64_t push_family_digest(const Graph& g, const std::string& name,
                                 const ProcessParams& params, double drop) {
  Fnv1a hash;
  FaultOptions options;
  options.drop = drop;
  const FaultModel model(g.num_vertices(), options);
  const auto process = make_process(g, name, params);
  if (drop > 0.0) process->set_fault_model(&model);
  StatsHash stats(hash, false);
  const auto add_trial = [&] {
    hash.add(process->result());
    if (const FaultSession* faults = process->fault_session()) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        hash.add(faults->tx(v));
        hash.add(faults->rx(v));
        hash.add(faults->listen(v));
      }
    }
  };
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    // Never the last vertex, which with_isolated_vertex leaves isolated.
    const auto start =
        static_cast<Vertex>(seed * 997 % (g.num_vertices() - 1));
    process->set_observer(&stats);
    process->reset(Rng(seed), start);
    while (!process->done()) process->step();
    add_trial();
    process->run(Rng(seed), start);
    add_trial();
    process->set_observer(nullptr);
    process->run(Rng(seed), start);
    add_trial();
  }
  return hash.value();
}

struct PushFamilyCell {
  const Graph* graph;
  const char* what;
  const char* name;
  ProcessParams params;
  std::uint64_t off, drop;
};

void expect_push_family_digests(const std::vector<PushFamilyCell>& cells) {
  for (const PushFamilyCell& c : cells) {
    const std::string what = std::string(c.what) + " " + c.name;
    EXPECT_DIGEST(push_family_digest(*c.graph, c.name, c.params, 0.0), c.off,
                  what + " off");
    EXPECT_DIGEST(push_family_digest(*c.graph, c.name, c.params, 0.2), c.drop,
                  what + " drop 0.2");
  }
}

TEST(GoldenDigest, PushFamilyOnAnExpWeightedTorus) {
  Graph torus = gen::torus({64, 64});
  gen::generate_weights(torus, gen::WeightKind::kExp, 17);
  const ProcessParams uniform = {{"max_rounds", "2048"}};
  const ProcessParams alias = {{"weighted", "1"}, {"max_rounds", "2048"}};
  expect_push_family_digests({
      {&torus, "uniform", "push", uniform,
       0x8f5b59f0a22d61d6ULL, 0xace10c05329b2e39ULL},
      {&torus, "uniform", "push-pull", uniform,
       0x144c5fbc5b1cd967ULL, 0x123d170b4a7ce45bULL},
      {&torus, "alias", "push", alias,
       0x9e0884a73efe1d0fULL, 0x48aeae24bd5d2018ULL},
      {&torus, "alias", "push-pull", alias,
       0x692e568419825869ULL, 0x5a6ed0b35cd64e92ULL},
  });
}

TEST(GoldenDigest, PushFamilyOnALollipopAndAnExpander) {
  const Graph lollipop = gen::lollipop(40, 60);
  const Graph g = expander(4096);
  const ProcessParams params = {{"max_rounds", "2048"}};
  expect_push_family_digests({
      {&lollipop, "lollipop", "push", params,
       0x960d6f68121cd88bULL, 0xe9038b6f714dcd98ULL},
      {&lollipop, "lollipop", "push-pull", params,
       0x66017505fdf372ceULL, 0x8c2148513205372eULL},
      {&g, "expander", "push", params,
       0x27cbd69d030efb77ULL, 0x2cd1f4e30991c6e1ULL},
      {&g, "expander", "push-pull", params,
       0x1e30c288fa87b671ULL, 0x43a514cb1f970088ULL},
  });
}

TEST(GoldenDigest, PushFamilyWithAnIsolatedVertexUpToTheRoundBudget) {
  const Graph g = with_isolated_vertex(gen::torus({64, 64}));
  const ProcessParams budget = {{"max_rounds", "200"}};
  expect_push_family_digests({
      {&g, "isolated", "push", budget,
       0x9f2cf7fe5b22e3b0ULL, 0xb14280fb1b4a2029ULL},
      {&g, "isolated", "push-pull", budget,
       0xdb06754553367502ULL, 0x924e1914ea638cf6ULL},
  });
}

/// Only weighted draws start a trial sparse, so the inputs above are
/// repeated exp-weighted with alias draws.
TEST(GoldenDigest, PushFamilyWithAliasDrawsOnEveryInput) {
  Graph lollipop = gen::lollipop(40, 60);
  Graph g = expander(4096);
  Graph isolated = with_isolated_vertex(gen::torus({64, 64}));
  for (Graph* graph : {&lollipop, &g, &isolated}) {
    gen::generate_weights(*graph, gen::WeightKind::kExp, 17);
  }
  const ProcessParams alias = {{"weighted", "1"}, {"max_rounds", "2048"}};
  const ProcessParams budget = {{"weighted", "1"}, {"max_rounds", "200"}};
  expect_push_family_digests({
      {&lollipop, "alias lollipop", "push", alias,
       0xa7eab205467cca2fULL, 0x0fbfac3ca84f24d6ULL},
      {&lollipop, "alias lollipop", "push-pull", alias,
       0x8617bed217373796ULL, 0xf311de93b280a3d9ULL},
      {&g, "alias expander", "push", alias,
       0x724e122dfea76a71ULL, 0x03d7bf51ffd3c0d1ULL},
      {&g, "alias expander", "push-pull", alias,
       0x92e82a1b6bb7b469ULL, 0x517e4873529c5fe1ULL},
      {&isolated, "alias isolated", "push", budget,
       0x2f778ef7f70da8d3ULL, 0x679646bc48c1c08eULL},
      {&isolated, "alias isolated", "push-pull", budget,
       0x782886a8f33ab994ULL, 0x0aa7b1be8bb764d1ULL},
  });
}

/// On a complete graph every push sender stays live until the last round
/// and each informee raises n - 1 counts, so a weighted trial leaves
/// sparse mode after its first informee.
TEST(GoldenDigest, PushFamilyOnACompleteGraph) {
  const Graph uniform = gen::complete(512);
  Graph weighted = gen::complete(512);
  gen::generate_weights(weighted, gen::WeightKind::kExp, 17);
  const ProcessParams params = {{"max_rounds", "2048"}};
  const ProcessParams alias = {{"weighted", "1"}, {"max_rounds", "2048"}};
  expect_push_family_digests({
      {&uniform, "complete", "push", params,
       0x7349c0edbdb88b08ULL, 0xd09d9fd9c6a4f25dULL},
      {&uniform, "complete", "push-pull", params,
       0x5e7738b6ac9cd35bULL, 0xfcca3e08dabb3588ULL},
      {&weighted, "alias complete", "push", alias,
       0xb3df418dbd67b250ULL, 0x7e010e0baa952866ULL},
      {&weighted, "alias complete", "push-pull", alias,
       0xff248596ac1864b9ULL, 0x26d8490dbb0c9728ULL},
  });
}

}  // namespace
}  // namespace cobra

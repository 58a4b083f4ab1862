// SPDX-License-Identifier: MIT
//
// Non-coalescing branching random walk — the ablation partner of COBRA.
// Every *particle* (not vertex) spawns k particles at uniformly chosen
// neighbours each round, so the particle population multiplies by k per
// round (2^t for k = 2). COBRA is exactly this process with all particles
// at a vertex coalesced into one; comparing the two isolates what
// coalescing buys: the same (slightly better) cover rounds at an
// exponentially smaller message bill.
#pragma once

#include <cstdint>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct BranchingWalkOptions {
  unsigned k = 2;
  std::size_t max_rounds = 64;
  /// Per-vertex particle cap. Populations grow like k^t, far beyond any
  /// machine: once a vertex holds this many particles its surplus is
  /// dropped (the occupied-set dynamics are essentially unaffected — a
  /// capped vertex still floods its whole neighbourhood with draws, and
  /// message totals report a documented lower bound from then on).
  std::uint64_t vertex_cap = 1u << 20;
  bool record_curve = true;
  /// Weighted spawn targets via the graph's alias tables (requires a
  /// weighted graph): each spawn lands on neighbour w with probability
  /// weight({v,w}) / strength(v). Applies to the per-particle path; the
  /// saturated even-share split stays an even split (with populations
  /// >= 64 * degree every neighbour's expected share is large whatever
  /// the weights — the occupied-set dynamics, which are what the
  /// ablation measures, are unaffected). false keeps the uniform draw
  /// and its RNG stream. Applies to BranchingWalkProcess only — the
  /// legacy run_branching_walk oracle stays uniform.
  bool weighted = false;
};

/// Steppable branching walk with a reusable workspace (particle-count,
/// next-count, and visited arrays sized once, refilled on reset). The RNG
/// stream matches the legacy run_branching_walk draw-for-draw, including
/// the large-population multinomial-approximate split. The curve follows
/// the uniform semantics (distinct visited per round); the particle
/// population and saturation flag stay available via accessors.
///
/// Under faults (core/faults.hpp) a down vertex's particles are frozen in
/// place (a down start vertex at round 0 simply waits — the documented
/// tolerate behaviour), and on the per-particle path a particle whose
/// every spawn was lost survives in place, so faults never extinguish the
/// population. The saturated even-share split is split_lossy.
class BranchingWalkProcess final : public Process {
 public:
  explicit BranchingWalkProcess(const Graph& g,
                                BranchingWalkOptions options = {});

  bool done() const override {
    return visited_count_ == graph_->num_vertices() ||
           round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return visited_count_; }
  /// Working set = vertices currently holding particles.
  std::size_t active_count() const override { return occupied_; }
  bool completed() const override {
    return visited_count_ == graph_->num_vertices();
  }
  /// Particle moves == messages; a lower bound once saturated().
  std::uint64_t total_transmissions() const override { return messages_; }
  std::size_t round_limit() const override { return options_.max_rounds; }

  /// Current particle population (capped).
  std::uint64_t population() const noexcept { return population_; }
  /// Particles currently at `v` (diagnostics / distribution tests).
  std::uint64_t particles_at(Vertex v) const { return counts_[v]; }
  /// True if any vertex hit the cap (message totals are lower bounds).
  bool saturated() const noexcept { return saturated_; }

  const Graph& graph() const noexcept { return *graph_; }
  const BranchingWalkOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Rng& rng, Faults& faults);

  /// The saturated even-share split of v's `out` spawns under faults,
  /// `share` per neighbour: drops are applied in expectation (the share
  /// scaled by 1 - drop, deterministic double arithmetic, so still
  /// bitwise reproducible), receivers that cannot receive get nothing,
  /// and the split is recorded through the session's bulk counters so tx
  /// == delivered + dropped + blocked holds exactly. Returns the particles
  /// delivered.
  std::uint64_t split_lossy(FaultSession& fs, Vertex v, std::uint64_t out,
                            std::uint64_t share);

  const Graph* graph_;
  BranchingWalkOptions options_;
  /// Alias tables for weighted spawns; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> next_;
  std::vector<char> visited_;
  std::size_t visited_count_ = 0;
  std::size_t occupied_ = 0;
  std::uint64_t population_ = 0;
  std::uint64_t messages_ = 0;
  std::size_t round_ = 0;
  bool saturated_ = false;
};

struct BranchingWalkResult {
  bool covered = false;
  std::size_t rounds = 0;
  std::size_t final_visited = 0;
  /// Total particle moves (== messages); saturates at the cap regime and
  /// is then a lower bound on the true count.
  std::uint64_t total_messages = 0;
  /// Particle population per round (capped).
  std::vector<std::uint64_t> population_curve;
  /// True if any vertex hit the cap (message totals are lower bounds).
  bool saturated = false;
};

/// Runs from a single particle at `start` until cover or max_rounds.
/// Legacy one-shot entry point — the parity oracle for
/// BranchingWalkProcess.
BranchingWalkResult run_branching_walk(const Graph& g, Vertex start,
                                       BranchingWalkOptions options, Rng& rng);

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Simple random walk — the k = 1 degenerate case of COBRA. Cover time is
// Omega(n log n) on every graph (Feige), which is the paper's argument
// that k = 1 branching is "not enough"; experiment E11 measures the
// separation against k = 2.
#pragma once

#include <optional>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

class RandomWalk {
 public:
  /// Walk starting at `start`; requires min degree >= 1.
  RandomWalk(const Graph& g, Vertex start);

  /// Moves one step; returns the new position. The neighbour draw is
  /// g.neighbor(v, rng.next_below32(degree)) — intentionally identical to
  /// CobraProcess's draw so that a k=1 COBRA and a RandomWalk given equal
  /// RNG states produce the same trajectory (tested).
  Vertex step(Rng& rng);

  Vertex position() const noexcept { return position_; }
  std::size_t steps() const noexcept { return steps_; }
  std::size_t visited_count() const noexcept { return visited_count_; }
  bool covered() const noexcept {
    return visited_count_ == graph_->num_vertices();
  }
  const std::vector<Round>& first_visit_step() const noexcept {
    return first_visit_;
  }

 private:
  const Graph* graph_;
  Vertex position_;
  std::size_t steps_ = 0;
  std::size_t visited_count_ = 1;
  std::vector<Round> first_visit_;
};

struct RandomWalkOptions {
  std::size_t max_steps = 1u << 28;
  bool record_curve = true;
  /// Weighted steps via the graph's alias tables (requires a weighted
  /// graph): P(move to w) = weight({v,w}) / strength(v) — the standard
  /// weighted random walk. false keeps the uniform draw and its RNG
  /// stream.
  bool weighted = false;
};

/// Steppable cover walk with a reusable workspace: the first-visit array
/// is sized once and epoch-refilled on reset. One Process round == one
/// walk step, and the RNG stream matches the legacy run_walk_cover
/// draw-for-draw. The curve keeps the legacy visit-event semantics:
/// curve[i] = step of the i-th distinct visit (bounded by n entries, not
/// by the 2^28-step budget).
///
/// Under faults (core/faults.hpp) the step counter always advances (a
/// round passes whether or not the token can move, so an always-down
/// graph still exhausts the budget), but the token only attempts a move
/// while its vertex is up, and only moves if the hop is delivered. A start
/// vertex that is down at round 0 simply waits in place — the documented
/// tolerate behaviour for walk-style processes.
class WalkProcess final : public Process {
 public:
  explicit WalkProcess(const Graph& g, RandomWalkOptions options = {});

  bool done() const override {
    return visited_count_ == graph_->num_vertices() ||
           steps_ >= options_.max_steps;
  }
  std::size_t round() const override { return steps_; }
  std::size_t reached_count() const override { return visited_count_; }
  /// Working set = the single token.
  std::size_t active_count() const override { return 1; }
  bool completed() const override {
    return visited_count_ == graph_->num_vertices();
  }
  /// The moves the token attempted: one per step without faults (a round
  /// spent down sends nothing).
  std::uint64_t total_transmissions() const override { return moves_; }
  std::uint64_t peak_vertex_round_transmissions() const override { return 1; }
  std::size_t round_limit() const override { return options_.max_steps; }

  Vertex position() const noexcept { return position_; }
  const Graph& graph() const noexcept { return *graph_; }
  const RandomWalkOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }
  std::size_t curve_size_hint() const override;
  void append_curve_point() override;

 private:
  /// One step under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Rng& rng, Faults& faults);

  const Graph* graph_;
  RandomWalkOptions options_;
  /// Alias tables for weighted steps; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<Round> first_visit_;
  Vertex position_ = 0;
  std::size_t steps_ = 0;
  std::size_t visited_count_ = 0;
  std::uint64_t moves_ = 0;  ///< hops attempted
};

/// Walks until every vertex is visited (or max_steps); SpreadResult.rounds
/// is the cover time in *steps*. curve is sampled only at visit events to
/// keep memory bounded: curve[i] = step of the i-th distinct visit.
/// Legacy one-shot entry point — the parity oracle for WalkProcess.
SpreadResult run_walk_cover(const Graph& g, Vertex start,
                            RandomWalkOptions options, Rng& rng);

/// Steps until `target` is reached; nullopt if not within max_steps.
std::optional<std::size_t> walk_hitting_time(const Graph& g, Vertex start,
                                             Vertex target,
                                             RandomWalkOptions options,
                                             Rng& rng);

}  // namespace cobra

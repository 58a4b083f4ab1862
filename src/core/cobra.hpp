// SPDX-License-Identifier: MIT
//
// The COBRA (coalescing-branching random walk) process — the paper's
// primary object.
//
// Round t -> t+1 (paper Section 1): every vertex in the active set C_t
// independently chooses k neighbours uniformly at random *with
// replacement*; C_{t+1} is the set of chosen vertices (duplicates
// coalesce). A vertex that pushed stops until it is chosen again.
//
// Engine notes (this class is the Monte Carlo hot path):
//  * C_t, C_{t+1} and the visited set are bitsets (one bit per vertex),
//    plus a u32 first-visit round per vertex, written only when its
//    visited bit is first set. C_t and C_{t+1} carry a summary: one bit
//    per 64-bit word, set when the word goes from zero to non-zero. A
//    round scans C_t through its summary in ascending vertex order,
//    emptying it, sets C_{t+1}'s bits for the draws, then merges C_{t+1}
//    word by word into the visited set (popcounts give |C_{t+1}|, fresh
//    bits get their first-visit round). A round costs O(n/4096 + words
//    touched), the bitsets of a 2^17-vertex graph are 16 KiB each, and
//    reset() is an O(n/64) clear, so trial loops reuse one process per
//    thread. A one-vertex round under k = 1 is one step of the walk loop
//    (walk()), which skips the bitset round.
//  * Draws are made in ascending vertex order, so a result is a pure
//    function of (graph, options, starts, RNG state); tests/ holds golden
//    digests of it.
//  * Fractional branching asks a geometric-skipping Bernoulli helper, so
//    the rho-draw costs one uniform per extra push, not one per vertex.
//  * Under faults (core/faults.hpp) tokens are conserved, never
//    corrupted: a down frontier vertex keeps its token in place for the
//    round (so a start vertex that is down at round 0 simply waits — see
//    README "Fault model"), and a vertex whose every push was lost
//    retains its token instead of going extinct. Transmissions are
//    counted per actual send. One round template serves both cases
//    (step_with); the k = 1 walk loop runs only without faults.
//
// The class exposes round-level stepping so examples can observe frontier
// dynamics; run_cobra_cover / cobra_hitting_time wrap the common
// measurements (cover time = min T with union_{t<=T} C_t = V, Theorem 1;
// hitting time Hit_C(v), Theorem 4).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/accounting.hpp"
#include "core/process.hpp"
#include "core/process_common.hpp"
#include "core/vertex_set.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct CobraOptions {
  Branching branching = Branching::fixed(2);
  /// Abort threshold for run_cobra_cover (the process itself never dies).
  std::size_t max_rounds = 1u << 20;
  /// Record the per-round curve and the per-round message breakdown
  /// (small overhead; off for bulk Monte Carlo). Transmission totals and
  /// the per-vertex peak are always counted, so results are independent
  /// of this flag.
  bool record_curves = true;
  /// Weighted neighbour choice: each push draws a neighbour with
  /// probability proportional to its edge weight via the graph's alias
  /// tables (O(1) per draw) instead of uniformly.
  /// Requires a weighted graph. weighted = false leaves the uniform draw
  /// path — and its RNG stream — untouched.
  bool weighted = false;
};

class CobraProcess final : public Process {
 public:
  /// Starts with C_0 = {start}. Requires start < n with degree >= 1
  /// (throws std::invalid_argument otherwise). Isolated vertices elsewhere
  /// are tolerated — the frontier can never reach them, so the process
  /// simply never covers such graphs.
  CobraProcess(const Graph& g, Vertex start, CobraOptions options = {});

  /// Starts with C_0 = `starts` (deduplicated). Requires non-empty.
  CobraProcess(const Graph& g, std::span<const Vertex> starts,
               CobraOptions options = {});

  /// Rewinds to round 0 with C_0 = {start} / `starts`: clears the bitsets
  /// (O(n/64) words). Throws std::invalid_argument (before mutating
  /// anything) on an empty, out-of-range, or degree-0 start set.
  /// (Process::reset(Rng, ...) layers trial-RNG capture and curve
  /// recording on top of these.)
  using Process::reset;
  void reset(Vertex start);
  void reset(std::span<const Vertex> starts);

  /// Executes one fault-free round; returns the number of first-time
  /// visits. The inherited Process::step() drives the round with the
  /// captured trial RNG, under the attached fault model if any.
  using Process::step;
  std::size_t step(Rng& rng);

  std::size_t round() const noexcept override { return round_; }
  std::size_t visited_count() const noexcept { return visited_count_; }
  bool covered() const noexcept {
    return visited_count_ == graph_->num_vertices();
  }

  // ---- unified Process contract ----
  bool done() const override {
    return covered() || round_ >= options_.max_rounds;
  }
  std::size_t reached_count() const override { return visited_count_; }
  /// Working set = the active frontier C_t.
  std::size_t active_count() const override { return frontier_size_; }
  bool completed() const override { return covered(); }
  std::uint64_t total_transmissions() const override {
    return accounting_.total();
  }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return accounting_.peak_vertex_round();
  }
  std::size_t round_limit() const override { return options_.max_rounds; }

  std::size_t frontier_size() const noexcept { return frontier_size_; }

  /// Current active set C_t in ascending vertex order, listed from the
  /// bitset on the first call after a round and cached in a mutable
  /// member — so despite the const signature, concurrent calls on a shared
  /// process are not safe. Processes are per-thread workspaces; don't
  /// share one across threads.
  std::span<const Vertex> frontier() const;

  bool has_visited(Vertex v) const { return test_bit(visited_.data(), v); }

  /// Round of v's first visit; kRoundNever if unvisited. The start set has
  /// round 0.
  Round first_visit_round(Vertex v) const {
    return has_visited(v) ? first_visit_[v] : kRoundNever;
  }

  /// Materialized per-vertex first-visit rounds (kRoundNever if unvisited).
  std::vector<Round> first_visit_rounds() const;

  const Accounting& accounting() const noexcept { return accounting_; }
  const Graph& graph() const noexcept { return *graph_; }
  const CobraOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override { reset(starts); }
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curves; }
  /// Under fixed k = 1: steps until the frontier is one vertex and runs the
  /// rest of the trial as walk(). Any other branching runs no rounds here.
  void run_unobserved(Rng& rng) override;

 private:
  /// Rounds of a one-vertex frontier under fixed k = 1, a simple random
  /// walk: at least one, then until covered or round `round_limit`. The
  /// position, round, visit count and RNG live in locals. step() runs one
  /// round of it; run_unobserved() the rest of the trial.
  void walk(Rng& rng, std::size_t round_limit);

  /// One round under fault policy `faults` (FaultSession or NoFaults);
  /// returns the number of first-time visits.
  template <typename Faults>
  std::size_t step_with(Rng& rng, Faults& faults);

  /// Ends a round whose draws filled next_: merges it into the visited
  /// set, makes it C_t and returns the number of first visits.
  std::size_t finish_round();

  const Graph* graph_;
  CobraOptions options_;
  /// Alias tables for weighted draws (see GraphAliasTables::draw_index);
  /// null when options_.weighted is false. Fetched once at construction.
  const GraphAliasTables* alias_ = nullptr;
  VertexSet current_;  ///< C_t
  VertexSet next_;     ///< C_{t+1} while a round draws; empty otherwise
  std::vector<std::uint64_t> visited_;  ///< bit v: v is in some C_s, s <= t
  /// first_visit_[v] is v's first-visit round; meaningful only once v's
  /// visited bit is set, so reset() never refills it.
  std::vector<Round> first_visit_;
  /// frontier()'s listing of current_, valid until the next round/reset.
  mutable std::vector<Vertex> frontier_;
  mutable bool frontier_listed_ = false;
  std::size_t frontier_size_ = 0;
  std::size_t visited_count_ = 0;
  Round round_ = 0;
  Accounting accounting_;
};

/// Runs until covered or options.max_rounds; returns the uniform result
/// (curve[t] = distinct vertices visited by end of round t).
SpreadResult run_cobra_cover(const Graph& g, Vertex start, CobraOptions options,
                             Rng& rng);

/// Workspace variant: resets `process` to {start} and runs it to cover
/// under process.options(). Trial loops use this with one process per
/// thread to avoid per-trial construction.
SpreadResult run_cobra_cover(CobraProcess& process, Vertex start, Rng& rng);

/// Hit_C(v): rounds until `target` is in C_t, starting from C_0 = starts.
/// nullopt if not hit within max_rounds. Hit is 0 if target is in starts.
std::optional<std::size_t> cobra_hitting_time(const Graph& g,
                                              std::span<const Vertex> starts,
                                              Vertex target,
                                              CobraOptions options, Rng& rng);

}  // namespace cobra

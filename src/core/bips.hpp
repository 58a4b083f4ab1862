// SPDX-License-Identifier: MIT
//
// BIPS — Biased Infection with Persistent Source (paper Section 1), the
// epidemic dual of COBRA under time reversal (Theorem 4).
//
// Round t -> t+1: every vertex u not in the source set independently
// selects k neighbours uniformly with replacement; u is in A_{t+1} iff at
// least one selected neighbour is in A_t. Sources are in A_t for every t.
// Note the infected set is *not* monotone — a vertex can recover by
// sampling only healthy neighbours (SIS type) — but the persistent source
// drives the whole graph to infection w.h.p. (Theorem 2).
//
// Engine notes: a vertex whose neighbourhood is uniformly infected (or
// uniformly healthy) has a forced next state — no sample can change it —
// so skipping its draws is distribution-preserving, exactly like the early
// exit on a hit. A_t, A_{t+1} and the source set are bitsets, and the
// engine runs in one of two modes:
//   * scan mode — every non-source vertex draws, in ascending order, into
//     a 64-vertex word of A_{t+1} built in a register; two popcounts per
//     word count A_{t+1} and the vertices that changed. Used while the
//     undecided boundary is a large fraction of n.
//   * list mode — a candidate set (core/vertex_set.hpp) holds every vertex
//     that is undecided or due to flip to a forced state. A round tests
//     the candidates' neighbour bits in ascending order, draws for exactly
//     the undecided ones and flips A_t in place; the next candidates are
//     the undecided ones plus the flipped vertices' non-source neighbours.
//     Early and late rounds cost O(boundary), not O(n).
// Transitions have hysteresis: list -> scan once the candidates reach n/8;
// scan -> list only when the epidemic is nearly saturated and quiet, by a
// rebuild from the healthy side, rationed per trial so degenerate
// instances (e.g. complete graphs, where every vertex stays undecided
// until the last) cannot thrash. Both modes visit vertices in ascending
// order and every transition is a deterministic function of the state, so
// results remain a pure function of (seed, trial); tests/ holds golden
// digests of them. reset() is an O(n/64) clear, so trial loops reuse one
// process per thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "core/vertex_set.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct BipsOptions {
  Branching branching = Branching::fixed(2);
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
  /// Weighted neighbour probes via the graph's alias tables (requires a
  /// weighted graph). The forced-outcome and first-hit skips remain
  /// distribution-preserving under any draw distribution — "all
  /// neighbours infected" forces infection whatever the weights — so the
  /// engine structure is unchanged; weighted = false leaves the uniform
  /// RNG stream untouched.
  bool weighted = false;
};

class BipsProcess final : public Process {
 public:
  /// Starts with A_0 = {source}. Requires min degree >= 1 (every vertex
  /// samples neighbours each round).
  BipsProcess(const Graph& g, Vertex source, BipsOptions options = {});

  /// Multi-source variant: every vertex of `sources` is persistently
  /// infected (A_0 = sources). The time-reversal duality generalizes:
  /// P(Hit_C(S) > t) = P(C cap A_t = empty | A_0 = S), where Hit_C(S) is
  /// the first round the COBRA frontier meets the set S (the paper proves
  /// the |S| = 1 case; the induction is verbatim for sets — tested exactly
  /// in tests/exact_test.cpp).
  BipsProcess(const Graph& g, std::span<const Vertex> sources,
              BipsOptions options = {});

  /// Rewinds to round 0 with the given persistent source set. Throws
  /// std::invalid_argument (before mutating) on a bad source set.
  /// (Process::reset(Rng, ...) layers trial-RNG capture on top.)
  using Process::reset;
  void reset(Vertex source);
  void reset(std::span<const Vertex> sources);

  /// Executes one round; returns |A_{t+1}|. The inherited Process::step()
  /// drives this with the captured trial RNG.
  using Process::step;
  std::size_t step(Rng& rng);

  std::size_t round() const noexcept override { return round_; }
  std::size_t infected_count() const noexcept { return infected_count_; }
  bool fully_infected() const noexcept {
    return infected_count_ == graph_->num_vertices();
  }

  // ---- unified Process contract ----
  bool done() const override {
    return fully_infected() || round_ >= options_.max_rounds;
  }
  std::size_t reached_count() const override { return infected_count_; }
  /// Working set = vertices the engine evaluates next round (the
  /// candidates in list mode, every non-source vertex in scan mode).
  std::size_t active_count() const override { return active_; }
  bool completed() const override { return fully_infected(); }
  std::uint64_t total_transmissions() const override { return probes_total_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return probes_peak_vertex_;
  }
  std::size_t round_limit() const override { return options_.max_rounds; }
  bool is_infected(Vertex v) const { return test_bit(infected_.data(), v); }
  bool is_source(Vertex v) const { return test_bit(source_.data(), v); }

  /// The full persistent source set, ascending and deduplicated.
  std::span<const Vertex> sources() const noexcept { return sources_; }

  /// Lowest-indexed source. With a multi-source construction prefer
  /// sources(); this accessor exists for the common single-source case.
  Vertex source() const noexcept { return sources_.front(); }

  /// Same as active_count().
  std::size_t active_size() const noexcept { return active_; }

  /// Neighbour probes actually drawn since the last reset. A vertex stops
  /// probing at its first infected hit, and in list mode vertices the
  /// engine classifies as forced draw nothing, so this counts the samples
  /// the dynamics consumed, not the nominal k(n - |S|) selections per
  /// round.
  std::uint64_t total_probes() const noexcept { return probes_total_; }

  /// Largest number of probes any single vertex drew in one round.
  std::uint64_t peak_vertex_round_probes() const noexcept {
    return probes_peak_vertex_;
  }

  const Graph& graph() const noexcept { return *graph_; }
  const BipsOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> sources) override { reset(sources); }
  void do_step(Rng& rng) override {
    if (faults() != nullptr) {
      step_faulty(rng);
      return;
    }
    step(rng);
  }
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// Fault-aware round (core/faults.hpp): a plain scan where a probe is a
  /// request/response pair — a vertex that is down or asleep cannot hear
  /// any response and keeps (freezes) its current state, and a vertex
  /// whose every probe was lost likewise keeps its state. Delivered
  /// probes behave normally. The forced-outcome/early-exit machinery is
  /// bypassed (its skips assume lossless probes).
  ///
  /// Unlike the other processes, BIPS keeps this round apart from step()
  /// instead of one template over the fault policy: the two draw different
  /// streams. step() asks fractional branching's extra probe through the
  /// geometric skipper, only after a first probe missed, and list rounds
  /// skip forced outcomes; this round draws all k probes of every
  /// receiving vertex with rng.bernoulli for the extra one. Folding them
  /// would change one of the two streams that the golden digests pin.
  void step_faulty(Rng& rng);
  /// Draws A_{t+1} into next_ and swaps it in: sources stay infected and
  /// every other vertex u takes next_state(u, u in A_t), in ascending
  /// order. Returns how many vertices changed state.
  template <typename F>
  std::size_t scan_into_next(F&& next_state);
  /// A list-mode round over cand_, which it leaves holding the next
  /// round's candidates.
  void list_round(Rng& rng);
  /// Fills the empty cand_ with A_t's candidates; returns their number.
  std::size_t rebuild_candidates();
  /// Adds v's non-source neighbours to cand_; returns how many were new.
  std::size_t add_neighbors(Vertex v);

  const Graph* graph_;
  BipsOptions options_;
  const GraphAliasTables* alias_ = nullptr;  ///< null unless weighted
  std::vector<Vertex> sources_;
  std::vector<std::uint64_t> source_;    ///< bit v: v is a source
  std::vector<std::uint64_t> infected_;  ///< A_t
  std::vector<std::uint64_t> next_;      ///< A_{t+1} while a scan round draws
  /// List mode: the vertices the next round evaluates. Empty in scan mode.
  VertexSet cand_;
  /// The vertices a round flips, applied to A_t after all have drawn.
  std::vector<Vertex> flips_;
  bool scan_mode_ = false;
  int rebuilds_left_ = 0;
  std::size_t active_ = 0;
  std::size_t infected_count_ = 0;
  Round round_ = 0;
  std::uint64_t probes_total_ = 0;
  std::uint64_t probes_peak_vertex_ = 0;
};

/// Runs until A_t = V or max_rounds. result.rounds is infec(source) when
/// completed; curve[t] = |A_t|. total_transmissions counts the neighbour
/// probes the engine actually drew (see BipsProcess::total_probes).
SpreadResult run_bips_infection(const Graph& g, Vertex source,
                                BipsOptions options, Rng& rng);

/// Workspace variant: resets `process` to {source} and runs it under
/// process.options(); trial loops use one process per thread.
SpreadResult run_bips_infection(BipsProcess& process, Vertex source, Rng& rng);

/// Duality probe (right-hand side of Theorem 4): runs exactly t rounds and
/// reports whether `probe` is in A_t. One Bernoulli sample of
/// P(probe in A_t | A_0 = source).
bool bips_membership_after(const Graph& g, Vertex source, Vertex probe,
                           std::size_t t, BipsOptions options, Rng& rng);

}  // namespace cobra

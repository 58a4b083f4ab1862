// SPDX-License-Identifier: MIT
//
// Source-free variant of BIPS: identical sampling dynamics, but no vertex
// is pinned infected, so the process is a genuine discrete SIS epidemic
// that can die out — the finite analogue of the contact-process extinction
// the paper contrasts COBRA with ("a contact process can die out, whereas
// the COBRA one does not"). Used by experiment E14 to show the persistent
// source is what makes Theorem 2 possible.
#pragma once

#include <cstdint>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct SisOptions {
  Branching branching = Branching::fixed(2);
  std::size_t max_rounds = 1u << 16;
  bool record_curve = true;
  /// Weighted neighbour probes via the graph's alias tables (requires a
  /// weighted graph); weighted = false leaves the uniform RNG stream
  /// untouched. Applies to SisProcess only — the legacy run_sis oracle
  /// stays uniform.
  bool weighted = false;
};

enum class SisOutcome : std::uint8_t {
  kExtinct,        ///< A_t became empty
  kFullInfection,  ///< A_t = V at some round
  kTimedOut,       ///< still live at max_rounds
};

struct SisResult {
  SisOutcome outcome = SisOutcome::kTimedOut;
  std::size_t rounds = 0;
  std::size_t final_count = 0;
  std::vector<std::size_t> curve;  ///< |A_t| per round (starts at |A_0|)
};

/// Steppable SIS with a reusable workspace (two n-byte bitmaps, refilled
/// on reset). Requires min degree >= 1 — every vertex samples neighbours
/// each round. Multi-seed A_0 is supported; the RNG stream for a single
/// seed matches the legacy run_sis draw-for-draw. Unlike the legacy
/// SisResult, the unified result also counts the neighbour probes the
/// dynamics consumed (total_transmissions); SpreadResult::completed means
/// full infection — extinction and timeout both read as failures.
///
/// Under faults (core/faults.hpp) probes are request/response pairs, so a
/// down or asleep vertex — or one whose every probe was lost — keeps its
/// current state for the round (delay, never corrupt). An infected
/// sleeping vertex therefore cannot spuriously recover, and faults alone
/// never extinguish a live epidemic mid-round.
class SisProcess final : public Process {
 public:
  explicit SisProcess(const Graph& g, SisOptions options = {});

  bool done() const override {
    return count_ == 0 || count_ == graph_->num_vertices() ||
           round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return count_; }
  /// Working set = the currently infected set A_t (non-monotone).
  std::size_t active_count() const override { return count_; }
  bool completed() const override {
    return count_ == graph_->num_vertices();
  }
  std::uint64_t total_transmissions() const override { return probes_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return peak_;
  }
  std::size_t round_limit() const override { return options_.max_rounds; }

  SisOutcome outcome() const noexcept {
    if (count_ == 0) return SisOutcome::kExtinct;
    if (count_ == graph_->num_vertices()) return SisOutcome::kFullInfection;
    return SisOutcome::kTimedOut;
  }
  bool is_infected(Vertex v) const { return infected_[v] != 0; }

  const Graph& graph() const noexcept { return *graph_; }
  const SisOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> seeds) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Rng& rng, Faults& faults);

  const Graph* graph_;
  SisOptions options_;
  /// Alias tables for weighted probes; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<char> infected_;
  std::vector<char> next_;
  std::size_t count_ = 0;
  std::size_t round_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t peak_ = 0;
};

/// Runs the source-free SIS process from A_0 = {seed} until extinction,
/// full infection, or max_rounds. Legacy one-shot entry point — the
/// parity oracle for SisProcess.
SisResult run_sis(const Graph& g, Vertex seed, SisOptions options, Rng& rng);

}  // namespace cobra

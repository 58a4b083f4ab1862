// SPDX-License-Identifier: MIT
//
// Synchronous flooding: every informed vertex forwards to ALL neighbours
// every round. Completes in exactly eccentricity(start) rounds — the
// round-count lower bound for any single-source dissemination — at the
// cost of Theta(m) messages per round. The message-budget extreme opposite
// of COBRA in experiment E12.
#pragma once

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"

namespace cobra {

struct FloodOptions {
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
};

/// Steppable flood with a reusable workspace (see PushProcess).
/// Deterministic: the RNG captured at reset() is never consumed, and a
/// dead frontier (disconnected remainder) makes done() true early.
///
/// Under faults (core/faults.hpp) the BFS shortcut (only frontier sends
/// matter) is wrong — a lost edge message must be retried — so EVERY up
/// informed vertex re-sends to all neighbours each round
/// (Theta(informed-degree) messages per round, the honest flooding cost).
/// The senders never run out, so done() reduces to full cover or the
/// round budget; transmissions and the per-vertex peak count actual sends.
class FloodProcess final : public Process {
 public:
  explicit FloodProcess(const Graph& g, FloodOptions options = {});

  bool done() const override {
    return count_ == graph_->num_vertices() || count_ == first_sender_ ||
           round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return count_; }
  /// Working set = the next round's senders: the BFS frontier, or every
  /// informed vertex under faults.
  std::size_t active_count() const override { return count_ - first_sender_; }
  bool completed() const override { return count_ == graph_->num_vertices(); }
  std::uint64_t total_transmissions() const override { return transmissions_; }
  /// Mirrors the legacy accounting: at least the graph's max degree (an
  /// informed hub transmits its whole neighbourhood every round).
  std::uint64_t peak_vertex_round_transmissions() const override;
  std::size_t round_limit() const override { return options_.max_rounds; }

  const Graph& graph() const noexcept { return *graph_; }
  const FloodOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Faults& faults);

  const Graph* graph_;
  FloodOptions options_;
  std::vector<char> informed_;
  /// The informed vertices in the order they were informed: [0, count_).
  /// The next round's senders are [first_sender_, count_): the last
  /// round's informees, or all of them under faults.
  std::vector<Vertex> informed_list_;
  std::size_t first_sender_ = 0;
  std::uint64_t informed_degree_sum_ = 0;
  std::size_t count_ = 0;
  std::size_t round_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t peak_ = 0;
};

/// Legacy one-shot entry point — the parity oracle for FloodProcess.
/// Deterministic; no RNG needed.
SpreadResult run_flood(const Graph& g, Vertex start, FloodOptions options);

}  // namespace cobra

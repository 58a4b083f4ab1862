// SPDX-License-Identifier: MIT
//
// Classic synchronous push rumour spreading: every *informed* vertex pushes
// to one uniform neighbour each round and stays informed forever. The
// paper's introduction positions COBRA against this protocol: push covers
// expanders in O(log n) rounds but its per-round message count grows to n,
// while COBRA caps transmissions at k per active vertex and deactivates
// senders. Experiment E12 quantifies the message-budget difference.
#pragma once

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct PushOptions {
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
  /// Weighted neighbour choice via the graph's alias tables (requires a
  /// weighted graph); false keeps the uniform draw and its RNG stream.
  bool weighted = false;
};

/// Steppable push with a reusable workspace: the informed bitmap and list
/// are sized once at construction and refilled on reset, so trial loops
/// pay zero allocations after the first trial. Single-start; the RNG
/// stream is draw-for-draw identical to the legacy run_push (senders are
/// processed in ascending vertex order each round — the informed list is
/// kept sorted, which is also what lets the batched engine's
/// vertex-ordered bit-plane scan replay the exact same stream).
///
/// Under faults (core/faults.hpp) down senders skip the round (informed
/// membership is monotone, so nothing needs freezing), lost or
/// receiver-blocked pushes inform no one, and transmissions count the
/// sends actually made.
class PushProcess final : public Process {
 public:
  /// Requires a non-empty graph; reset() validates the start.
  explicit PushProcess(const Graph& g, PushOptions options = {});

  bool done() const override {
    return informed_list_.size() == graph_->num_vertices() ||
           round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return informed_list_.size(); }
  /// Working set = the informed senders of the next round.
  std::size_t active_count() const override { return informed_list_.size(); }
  bool completed() const override {
    return informed_list_.size() == graph_->num_vertices();
  }
  std::uint64_t total_transmissions() const override { return transmissions_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return peak_;  // 1 after any round: every sender sends exactly once
  }
  std::size_t round_limit() const override { return options_.max_rounds; }

  const Graph& graph() const noexcept { return *graph_; }
  const PushOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Rng& rng, Faults& faults);

  /// Sorts the round's `fresh` new informees (the head of new_informed_)
  /// and merges them into the (sorted) informed list in place.
  /// Allocation-free: the list is reserved to n.
  void merge_new_informed(std::size_t fresh);

  const Graph* graph_;
  PushOptions options_;
  /// Alias tables for weighted draws; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<char> informed_;
  /// Ascending informed vertices (the next round's senders, in order).
  std::vector<Vertex> informed_list_;
  /// Scratch of n entries: vertices first informed this round, merged at
  /// round end.
  std::vector<Vertex> new_informed_;
  std::size_t round_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t peak_ = 0;
};

/// Legacy one-shot entry point (allocates per call). Kept verbatim as the
/// parity oracle for PushProcess (tests/process_test.cpp); prefer the
/// factory + PushProcess for anything hot.
SpreadResult run_push(const Graph& g, Vertex start, PushOptions options,
                      Rng& rng);

}  // namespace cobra

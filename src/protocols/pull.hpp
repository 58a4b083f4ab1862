// SPDX-License-Identifier: MIT
//
// Pull-only rumour spreading: each round every UNINFORMED vertex contacts
// one uniform neighbour and becomes informed iff that neighbour is
// informed. The mirror image of push — and structurally the closest
// classical protocol to BIPS (BIPS is "pull with k samples, re-sampled
// membership, and a persistent source"). Completes the protocol matrix of
// experiment E12.
#pragma once

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct PullOptions {
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
  /// Weighted neighbour choice via the graph's alias tables (requires a
  /// weighted graph); false keeps the uniform draw and its RNG stream.
  bool weighted = false;
};

/// Steppable pull with a reusable workspace (see PushProcess). The RNG
/// stream is draw-for-draw identical to the legacy run_pull (uninformed
/// vertices contact in ascending order).
///
/// Under faults (core/faults.hpp) a pull is a request/response pair, so a
/// down or asleep vertex cannot contact anyone (it would not hear the
/// response); one fault draw per contact decides the round trip. Informed
/// membership stays monotone.
class PullProcess final : public Process {
 public:
  explicit PullProcess(const Graph& g, PullOptions options = {});

  bool done() const override {
    return count_ == graph_->num_vertices() || round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return count_; }
  /// Working set = the uninformed contactors of the next round (upper
  /// bound: includes isolated vertices, which contact no one).
  std::size_t active_count() const override {
    return graph_->num_vertices() - count_;
  }
  bool completed() const override { return count_ == graph_->num_vertices(); }
  std::uint64_t total_transmissions() const override { return transmissions_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return peak_;
  }
  std::size_t round_limit() const override { return options_.max_rounds; }

  const Graph& graph() const noexcept { return *graph_; }
  const PullOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults).
  template <typename Faults>
  void step_with(Rng& rng, Faults& faults);

  const Graph* graph_;
  PullOptions options_;
  /// Alias tables for weighted draws; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<char> informed_;
  std::size_t count_ = 0;
  std::size_t round_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t peak_ = 0;
};

/// Legacy one-shot entry point — the parity oracle for PullProcess.
SpreadResult run_pull(const Graph& g, Vertex start, PullOptions options,
                      Rng& rng);

}  // namespace cobra

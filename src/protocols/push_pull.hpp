// SPDX-License-Identifier: MIT
//
// Push-pull rumour spreading (Karp et al.): each round every informed
// vertex pushes to a uniform neighbour AND every uninformed vertex pulls
// from a uniform neighbour (becoming informed if the contacted neighbour
// is informed). The strongest classical baseline; always n contacts per
// round. Used in experiment E12.
#pragma once

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "core/vertex_set.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct PushPullOptions {
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
  /// Weighted contact choice via the graph's alias tables (requires a
  /// weighted graph); false keeps the uniform draw and its RNG stream.
  bool weighted = false;
};

/// Steppable push-pull with a reusable workspace (see PushProcess). The
/// RNG stream is draw-for-draw identical to the legacy run_push_pull
/// (every positive-degree vertex contacts once, in ascending order).
///
/// A fault-free trial with weighted draws starts sparse: each vertex
/// counts its informed neighbours (InformedNeighbors, core/vertex_set.hpp),
/// and a vertex whose neighbours all share its state is quiet — an
/// informed one pushes to an informed neighbour, an uninformed one pulls
/// from an uninformed one — so its draw's result is thrown away unread,
/// which drops the alias coin's branch and the reads behind it while the
/// stream stays draw-for-draw as it was. On a lattice almost every contact
/// is quiet. The trial drops the counts and finishes on the dense round,
/// which draws for every contact, once they cost more than they skip:
/// when its increments pass n plus its quiet contacts so far or a round's
/// live contacts pass n/8 (an expander's boundary). Uniform draws are
/// dense throughout: a quiet uniform draw would skip only cached reads.
///
/// Under faults (core/faults.hpp) every round is dense: a down vertex
/// makes no contact; pushes inform on delivery, and pulls
/// (request/response pairs) need the puller up and awake plus a delivered
/// round trip. Informed membership stays monotone.
class PushPullProcess final : public Process {
 public:
  explicit PushPullProcess(const Graph& g, PushPullOptions options = {});

  bool done() const override {
    return count_ == graph_->num_vertices() || round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return count_; }
  /// Working set = every positive-degree vertex (all of them contact).
  std::size_t active_count() const override { return contactors_; }
  bool completed() const override { return count_ == graph_->num_vertices(); }
  std::uint64_t total_transmissions() const override { return transmissions_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return peak_;
  }
  std::size_t round_limit() const override { return options_.max_rounds; }

  const Graph& graph() const noexcept { return *graph_; }
  const PushPullOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round under fault policy `faults` (FaultSession or NoFaults);
  /// kSparse skips quiet contacts and keeps the counts.
  template <bool kSparse, typename Faults>
  void step_with(Rng& rng, Faults& faults);

  const Graph* graph_;
  PushPullOptions options_;
  /// Alias tables for weighted draws; null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  /// 1 if informed at the start of the round, 2 if informed during it
  /// (1 from the round's end), 0 otherwise.
  std::vector<char> informed_;
  InformedNeighbors neighbors_;
  std::size_t contactors_ = 0;  ///< positive-degree vertex count (fixed)
  std::size_t count_ = 0;
  std::size_t round_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t peak_ = 0;
};

/// Legacy one-shot entry point — the parity oracle for PushPullProcess.
SpreadResult run_push_pull(const Graph& g, Vertex start,
                           PushPullOptions options, Rng& rng);

}  // namespace cobra

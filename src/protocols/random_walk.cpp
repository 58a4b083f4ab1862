// SPDX-License-Identifier: MIT
#include "protocols/random_walk.hpp"

#include <algorithm>
#include <stdexcept>

namespace cobra {

RandomWalk::RandomWalk(const Graph& g, Vertex start)
    : graph_(&g), position_(start), first_visit_(g.num_vertices(), kRoundNever) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("RandomWalk requires a non-empty graph");
  }
  if (start >= g.num_vertices()) {
    throw std::invalid_argument("RandomWalk start out of range");
  }
  // Only the start needs an edge: the walk can only stand on vertices it
  // reached along an edge, and undirected edges are traversable back.
  if (g.degree(start) == 0) {
    throw std::invalid_argument("RandomWalk start must have degree >= 1");
  }
  first_visit_[start] = 0;
}

Vertex RandomWalk::step(Rng& rng) {
  const auto degree = static_cast<std::uint32_t>(graph_->degree(position_));
  position_ = graph_->neighbor(position_, rng.next_below32(degree));
  ++steps_;
  if (first_visit_[position_] == kRoundNever) {
    first_visit_[position_] = static_cast<Round>(steps_);
    ++visited_count_;
  }
  return position_;
}

WalkProcess::WalkProcess(const Graph& g, RandomWalkOptions options)
    : graph_(&g), options_(options), first_visit_(g.num_vertices(), kRoundNever) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("WalkProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "WalkProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

std::size_t WalkProcess::curve_size_hint() const {
  // One curve entry per distinct visit: bounded by n, not by the budget.
  return std::min(graph_->num_vertices(), kCurveReserveCap);
}

void WalkProcess::append_curve_point() {
  // Visit-event sampling: one entry (the step index) per distinct visit.
  // A step visits at most one new vertex, so catching up is a single push.
  if (mutable_curve().size() < visited_count_) {
    mutable_curve().push_back(steps_);
  }
}

void WalkProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("walk is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("walk start out of range");
  }
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("walk start must have degree >= 1");
  }
  std::fill(first_visit_.begin(), first_visit_.end(), kRoundNever);
  first_visit_[start] = 0;
  position_ = start;
  steps_ = 0;
  visited_count_ = 1;
  moves_ = 0;
}

void WalkProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
void WalkProcess::step_with(Rng& rng, Faults& faults) {
  // The round elapses whether or not the token can move — an always-down
  // schedule must still exhaust the step budget, never loop forever.
  ++steps_;
  const Vertex v = position_;
  if (!faults.can_send(v)) return;  // down: token waits in place
  const Vertex w =
      alias_ != nullptr
          ? alias_->draw(*graph_, v, rng)
          : graph_->neighbor(v, rng.next_below32(static_cast<std::uint32_t>(
                                    graph_->degree(v))));
  ++moves_;
  if (!faults.transmit(v, 0, w)) return;  // hop lost/blocked: stay put
  position_ = w;
  if (first_visit_[w] == kRoundNever) {
    first_visit_[w] = static_cast<Round>(steps_);
    ++visited_count_;
  }
}

SpreadResult run_walk_cover(const Graph& g, Vertex start,
                            RandomWalkOptions options, Rng& rng) {
  RandomWalk walk(g, start);
  SpreadResult result;
  result.curve.reserve(std::min<std::size_t>(g.num_vertices(), 1u << 16));
  result.curve.push_back(0);  // first distinct visit (the start) at step 0
  while (!walk.covered() && walk.steps() < options.max_steps) {
    const std::size_t before = walk.visited_count();
    walk.step(rng);
    if (walk.visited_count() > before) {
      result.curve.push_back(walk.steps());
    }
  }
  result.completed = walk.covered();
  result.rounds = walk.steps();
  result.final_count = walk.visited_count();
  result.total_transmissions = walk.steps();  // one token move per step
  result.peak_vertex_round_transmissions = 1;
  return result;
}

std::optional<std::size_t> walk_hitting_time(const Graph& g, Vertex start,
                                             Vertex target,
                                             RandomWalkOptions options,
                                             Rng& rng) {
  RandomWalk walk(g, start);
  if (start == target) return 0;
  while (walk.steps() < options.max_steps) {
    if (walk.step(rng) == target) return walk.steps();
  }
  return std::nullopt;
}

}  // namespace cobra

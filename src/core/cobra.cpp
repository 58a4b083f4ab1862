// SPDX-License-Identifier: MIT
#include "core/cobra.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "rand/sampling.hpp"

namespace cobra {

CobraProcess::CobraProcess(const Graph& g, Vertex start, CobraOptions options)
    : CobraProcess(g, std::span<const Vertex>(&start, 1), std::move(options)) {}

CobraProcess::CobraProcess(const Graph& g, std::span<const Vertex> starts,
                           CobraOptions options)
    : graph_(&g), options_(std::move(options)) {
  const std::size_t n = g.num_vertices();
  if (n == 0) {
    throw std::invalid_argument("CobraProcess requires a non-empty graph");
  }
  // Start vertices must have an edge (reset() checks). Isolated vertices
  // elsewhere are harmless: the frontier only reaches vertices along
  // edges, so every active vertex always has a neighbour to choose — such
  // graphs simply never cover (external edge lists can be disconnected).
  if (!options_.branching.is_fractional() && options_.branching.k == 0) {
    throw std::invalid_argument("CobraProcess requires branching k >= 1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "CobraProcess weighted=true requires a weighted graph");
    }
    // Build (or fetch the cached) alias tables up front, outside the
    // trial loop.
    alias_ = &g.alias_tables();
  }
  current_.assign(n);
  next_.assign(n);
  visited_.assign((n + 63) / 64, 0);
  first_visit_.resize(n);
  reset(starts);
}

void CobraProcess::reset(Vertex start) {
  reset(std::span<const Vertex>(&start, 1));
}

void CobraProcess::reset(std::span<const Vertex> starts) {
  if (starts.empty()) {
    throw std::invalid_argument("CobraProcess requires a non-empty start set");
  }
  for (const Vertex v : starts) {
    if (v >= graph_->num_vertices()) {
      throw std::invalid_argument("start vertex out of range");
    }
    if (graph_->degree(v) == 0) {
      throw std::invalid_argument(
          "CobraProcess start must have degree >= 1 (an active isolated "
          "vertex cannot choose a neighbour)");
    }
  }
  clear(current_);
  std::fill(visited_.begin(), visited_.end(), std::uint64_t{0});
  visited_count_ = 0;
  for (const Vertex v : starts) {
    if (has_visited(v)) continue;  // duplicate in the set
    current_.insert(v);
    visited_[v / 64] |= std::uint64_t{1} << (v % 64);
    first_visit_[v] = 0;
    ++visited_count_;
  }
  frontier_size_ = visited_count_;
  frontier_listed_ = false;
  round_ = 0;
  accounting_.reset();
}

std::span<const Vertex> CobraProcess::frontier() const {
  if (!frontier_listed_) {
    if (frontier_.capacity() == 0) frontier_.reserve(graph_->num_vertices());
    frontier_.clear();
    scan<false>(current_, [&](Vertex v) { frontier_.push_back(v); });
    frontier_listed_ = true;
  }
  return frontier_;
}

std::vector<Round> CobraProcess::first_visit_rounds() const {
  std::vector<Round> rounds(graph_->num_vertices(), kRoundNever);
  for (Vertex v = 0; v < graph_->num_vertices(); ++v) {
    rounds[v] = first_visit_round(v);
  }
  return rounds;
}

std::size_t CobraProcess::step(Rng& rng) { return step_with(rng, kNoFaults); }

void CobraProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
std::size_t CobraProcess::step_with(Rng& rng, Faults& faults) {
  if (options_.record_curves) accounting_.begin_round();
  const Branching& branching = options_.branching;
  if (Faults::kLossless && !branching.is_fractional() && branching.k == 1 &&
      frontier_size_ == 1) {
    const std::size_t visited = visited_count_;
    walk(rng, round_ + 1);
    return visited_count_ - visited;
  }
  // The RNG lives in a local: the bitset stores below may alias a
  // referenced RNG's state, which would then go to memory every draw.
  Rng local = rng;
  const Draws draw = draws_of(*graph_, alias_);
  VertexSet& next = next_;
  std::size_t frozen = 0;
  // Down: the token is frozen in place — no sends, no accounting.
  const auto frozen_in_place = [&](Vertex v) {
    if (faults.can_send(v)) return false;
    next.insert(v);
    ++frozen;
    return true;
  };
  const auto push = [&](Vertex v, unsigned pushes) {
    std::uint32_t degree = 0;
    std::size_t begin = 0;
    const Vertex* nbrs = draw.neighbor_block(v, degree, begin);
    bool delivered = false;
    for (unsigned p = 0; p < pushes; ++p) {
      const Vertex w = nbrs[draw.draw_index(begin, degree, local)];
      if (faults.transmit(v, p, w)) {
        next.insert(w);
        delivered = true;
      }
    }
    // Every push lost/blocked: the token is retained, not extinguished —
    // faults delay coverage, they never kill the process.
    if (!Faults::kLossless && !delivered) next.insert(v);
  };
  // Totals and peak are always counted: transmission results must not
  // depend on whether curves are recorded. Only the per-round breakdown
  // is gated (begin_round above).
  if (branching.is_fractional()) {
    BernoulliSkipper extra(branching.rho);
    scan<true>(current_, [&](Vertex v) {
      if (frozen_in_place(v)) return;
      const unsigned pushes = 1u + (extra.next(local) ? 1u : 0u);
      accounting_.record_vertex_send(pushes);
      push(v, pushes);
    });
  } else {
    const unsigned k = branching.k;
    scan<true>(current_, [&](Vertex v) {
      if (!frozen_in_place(v)) push(v, k);
    });
    accounting_.record_sends(frontier_size_ - frozen, k);
  }
  rng = local;
  return finish_round();
}

std::size_t CobraProcess::finish_round() {
  const Round round = round_ + 1;
  std::size_t size = 0;
  std::size_t fresh_count = 0;
  scan_words<false>(next_, [&](std::size_t i, std::uint64_t word) {
    size += static_cast<std::size_t>(std::popcount(word));
    std::uint64_t fresh = word & ~visited_[i];
    if (fresh == 0) return;
    visited_[i] |= fresh;
    fresh_count += static_cast<std::size_t>(std::popcount(fresh));
    for (; fresh != 0; fresh &= fresh - 1) {
      first_visit_[i * 64 + std::countr_zero(fresh)] = round;
    }
  });
  std::swap(current_, next_);
  frontier_size_ = size;
  frontier_listed_ = false;
  visited_count_ += fresh_count;
  round_ = round;
  return fresh_count;
}

void CobraProcess::run_unobserved(Rng& rng) {
  const Branching& branching = options_.branching;
  if (branching.is_fractional() || branching.k != 1) return;
  // Under k = 1 the frontier never grows, so once it is one vertex it
  // stays one.
  while (!done() && frontier_size_ > 1) step(rng);
  if (!done()) walk(rng, options_.max_rounds);
}

void CobraProcess::walk(Rng& rng, std::size_t round_limit) {
  // A round of a one-vertex frontier with one push: no coalescing is
  // possible, the round sends one message, and the vertex drawn in round
  // r is first visited in r unless already visited. Locals keep the state
  // in registers.
  Rng local = rng;
  Vertex position = 0;
  scan<true>(current_, [&](Vertex v) { position = v; });
  Round round = round_;
  std::size_t visited = visited_count_;
  const std::size_t n = graph_->num_vertices();
  std::uint64_t* const seen = visited_.data();
  Round* const first_visit = first_visit_.data();
  const Draws draw = draws_of(*graph_, alias_);
  do {
    std::uint32_t degree = 0;
    std::size_t begin = 0;
    const Vertex* nbrs = draw.neighbor_block(position, degree, begin);
    position = nbrs[draw.draw_index(begin, degree, local)];
    ++round;
    const std::uint64_t bit = std::uint64_t{1} << (position % 64);
    if ((seen[position / 64] & bit) == 0) {
      seen[position / 64] |= bit;
      first_visit[position] = round;
      ++visited;
    }
  } while (visited != n && round < round_limit);
  accounting_.record_sends(round - round_, 1);
  rng = local;
  current_.insert(position);
  frontier_listed_ = false;
  visited_count_ = visited;
  round_ = round;
}

namespace {

SpreadResult run_to_cover(CobraProcess& process, Rng& rng) {
  const CobraOptions& options = process.options();
  SpreadResult result;
  if (options.record_curves) result.curve.push_back(process.visited_count());
  while (!process.covered() && process.round() < options.max_rounds) {
    process.step(rng);
    if (options.record_curves) result.curve.push_back(process.visited_count());
  }
  result.completed = process.covered();
  result.rounds = process.round();
  result.final_count = process.visited_count();
  result.total_transmissions = process.accounting().total();
  result.peak_vertex_round_transmissions =
      process.accounting().peak_vertex_round();
  return result;
}

}  // namespace

SpreadResult run_cobra_cover(const Graph& g, Vertex start, CobraOptions options,
                             Rng& rng) {
  CobraProcess process(g, start, options);
  return run_to_cover(process, rng);
}

SpreadResult run_cobra_cover(CobraProcess& process, Vertex start, Rng& rng) {
  process.reset(start);
  return run_to_cover(process, rng);
}

std::optional<std::size_t> cobra_hitting_time(const Graph& g,
                                              std::span<const Vertex> starts,
                                              Vertex target,
                                              CobraOptions options, Rng& rng) {
  options.record_curves = false;  // bulk Monte Carlo path
  CobraProcess process(g, starts, options);
  // Hit_C(v) = min{t : v in C_t} = the round of v's first visit.
  while (!process.has_visited(target)) {
    if (process.round() >= options.max_rounds) return std::nullopt;
    process.step(rng);
  }
  return process.first_visit_round(target);
}

}  // namespace cobra

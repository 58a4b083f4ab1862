// SPDX-License-Identifier: MIT
#include "core/cobra.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "rand/sampling.hpp"

namespace cobra {

namespace {
/// Re-zero the stamp arrays when the global round counter nears wrap; a
/// workspace would need ~2^31 cumulative rounds to get here once.
constexpr std::uint32_t kStampWrapGuard =
    std::numeric_limits<std::uint32_t>::max() / 2;
}  // namespace

CobraProcess::CobraProcess(const Graph& g, Vertex start, CobraOptions options)
    : CobraProcess(g, std::span<const Vertex>(&start, 1), std::move(options)) {}

CobraProcess::CobraProcess(const Graph& g, std::span<const Vertex> starts,
                           CobraOptions options)
    : graph_(&g),
      options_(std::move(options)),
      visit_(g.num_vertices(), 0),
      dense_threshold_(std::max<std::size_t>(64, g.num_vertices() / 16)) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("CobraProcess requires a non-empty graph");
  }
  // Worst-case list capacity up front (a dense-round materialization can
  // hold all of C_t, and swap() trades the two vectors' capacities), so a
  // trial loop's steady state performs zero allocations.
  frontier_.reserve(g.num_vertices());
  next_frontier_.reserve(g.num_vertices());
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
  // Advance the stamp base past everything the previous trial wrote
  // (largest possible stamp: base_ + round_ for both buffers).
  const std::uint64_t advanced =
      static_cast<std::uint64_t>(base_) + round_ + 2;
  if (advanced >= kStampWrapGuard) {
    std::fill(visit_.begin(), visit_.end(), std::uint64_t{0});
    base_ = 1;
  } else {
    base_ = static_cast<Stamp>(advanced);
  }
  round_ = 0;
  accounting_.reset();
  seed_frontier(starts);
}

void CobraProcess::seed_frontier(std::span<const Vertex> starts) {
  frontier_.clear();
  const Stamp start_stamp = stamp(0);
  const std::uint64_t seeded =
      (static_cast<std::uint64_t>(start_stamp) << 32) | start_stamp;
  for (const Vertex v : starts) {
    if (visit_[v] == seeded) continue;  // duplicate in the set
    visit_[v] = seeded;
    frontier_.push_back(v);
  }
  std::sort(frontier_.begin(), frontier_.end());
  visited_count_ = frontier_.size();
  frontier_size_ = frontier_.size();
  frontier_list_valid_ = true;
}

std::span<const Vertex> CobraProcess::frontier() const {
  if (!frontier_list_valid_) {
    frontier_.clear();
    const Stamp current = stamp(round_);
    const std::size_t n = graph_->num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      if (static_cast<Stamp>(visit_[v]) == current) frontier_.push_back(v);
    }
    frontier_list_valid_ = true;
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

std::size_t CobraProcess::step(Rng& rng) {
  const Round next_round = round_ + 1;
  const Stamp next = stamp(next_round);
  // Materialize C_t by one sequential scan if the previous round dropped
  // the list (dense path). This runs before any draws, so the membership
  // stamps are still exactly the round-t values, and the scan order makes
  // the list ascending — the same traversal order the sorted sparse list
  // has, so the RNG stream is representation-independent.
  frontier();
  next_frontier_.clear();
  if (options_.record_curves) accounting_.begin_round();
  std::size_t new_visits = 0;
  std::size_t next_size = 0;
  // Stop listing the next frontier once it is guaranteed dense (it will be
  // re-materialized from the stamps). Forced-sparse always lists.
  bool collect = options_.frontier_mode != FrontierMode::kDense;

  const Branching& branching = options_.branching;
  const bool fractional = branching.is_fractional();
  BernoulliSkipper extra(fractional ? branching.rho : 0.0);

  std::uint64_t* visit = visit_.data();
  const Draws draw = draws();

  const auto apply = [&](Vertex w) {
    const std::uint64_t state = visit[w];  // one line: membership + visit
    if (static_cast<Stamp>(state) == next) return;  // coalesce
    if (static_cast<Stamp>(state >> 32) >= base_) {
      visit[w] = (state & 0xFFFFFFFF00000000ULL) | next;
    } else {
      visit[w] = (static_cast<std::uint64_t>(next) << 32) | next;
      ++new_visits;
    }
    ++next_size;
    if (collect) {
      next_frontier_.push_back(w);
      if (options_.frontier_mode == FrontierMode::kAuto &&
          next_frontier_.size() >= dense_threshold_) {
        collect = false;
      }
    }
  };

  // The frontier is processed in small batches: all of a batch's draws are
  // made first (prefetching the visit words they will touch), then applied
  // in draw order. Draws never read visit state, so the RNG stream and the
  // results are identical to the fused loop — the batching only hides the
  // random-access latency of visit[w].
  constexpr std::size_t kBatchVertices = 16;
  constexpr std::size_t kBufferSize = 64;
  Vertex buffer[kBufferSize];
  const std::size_t frontier_count = frontier_.size();
  std::size_t i = 0;
  while (i < frontier_count) {
    std::size_t buffered = 0;
    std::size_t batch_end = i;
    while (batch_end < frontier_count && batch_end - i < kBatchVertices) {
      const Vertex v = frontier_[batch_end];
      std::uint32_t degree;
      std::size_t begin;
      const Vertex* nbrs = draw.neighbor_block(v, degree, begin);
      // Number of pushes this vertex performs this round.
      const unsigned pushes =
          fractional ? 1u + (extra.next(rng) ? 1u : 0u) : branching.k;
      // Totals/peak are always counted (two scalar ops): transmission
      // results must not depend on whether curves are recorded. Only the
      // per-round breakdown is gated (begin_round above).
      accounting_.record_vertex_send(pushes);
      if (buffered + pushes > kBufferSize) {
        // Oversized branching factor: draw and apply this vertex inline.
        for (unsigned p = 0; p < pushes; ++p) {
          apply(nbrs[draw.draw_index(begin, degree, rng)]);
        }
      } else {
        for (unsigned p = 0; p < pushes; ++p) {
          const Vertex w = nbrs[draw.draw_index(begin, degree, rng)];
          buffer[buffered++] = w;
          __builtin_prefetch(&visit[w], 1);
        }
      }
      ++batch_end;
    }
    for (std::size_t t = 0; t < buffered; ++t) apply(buffer[t]);
    i = batch_end;
  }

  const bool next_dense =
      options_.frontier_mode == FrontierMode::kDense ||
      (options_.frontier_mode == FrontierMode::kAuto &&
       next_size >= dense_threshold_);
  if (!next_dense && collect) {
    frontier_.swap(next_frontier_);
    std::sort(frontier_.begin(), frontier_.end());
    frontier_list_valid_ = true;
  } else {
    frontier_list_valid_ = false;
  }
  frontier_size_ = next_size;
  visited_count_ += new_visits;
  round_ = next_round;
  return new_visits;
}

void CobraProcess::run_unobserved(Rng& rng) {
  const Branching& branching = options_.branching;
  if (branching.is_fractional() || branching.k != 1) return;
  // Under k = 1 the frontier never grows, so once it is one vertex it
  // stays one.
  while (!done() && frontier_size_ > 1) step(rng);
  if (!done()) walk(rng);
}

void CobraProcess::walk(Rng& rng) {
  // The loop is step() for a one-vertex frontier and one push: no
  // coalescing is possible, every round sends one message, and round r's
  // stamp goes to the vertex drawn. Locals keep the state in registers.
  Rng local = rng;
  Vertex position = frontier()[0];
  Round round = round_;
  std::size_t visited = visited_count_;
  const std::size_t n = graph_->num_vertices();
  const std::size_t max_rounds = options_.max_rounds;
  std::uint64_t* visit = visit_.data();
  const Stamp base = base_;
  const Draws draw = draws();
  while (visited != n && round < max_rounds) {
    std::uint32_t degree;
    std::size_t begin;
    const Vertex* nbrs = draw.neighbor_block(position, degree, begin);
    position = nbrs[draw.draw_index(begin, degree, local)];
    ++round;
    const Stamp next = base + round;
    const std::uint64_t state = visit[position];
    if (static_cast<Stamp>(state >> 32) >= base) {
      visit[position] = (state & 0xFFFFFFFF00000000ULL) | next;
    } else {
      visit[position] = (static_cast<std::uint64_t>(next) << 32) | next;
      ++visited;
    }
  }
  accounting_.record_walk_steps(round - round_);
  rng = local;
  frontier_.assign(1, position);
  frontier_list_valid_ = true;
  visited_count_ = visited;
  round_ = round;
}

void CobraProcess::step_faulty(Rng& rng) {
  FaultSession& fs = *faults();
  const Round next_round = round_ + 1;
  const Stamp next = stamp(next_round);
  frontier();  // materialize C_t in ascending order (both representations)
  next_frontier_.clear();
  if (options_.record_curves) accounting_.begin_round();
  std::size_t new_visits = 0;
  std::size_t next_size = 0;

  const Branching& branching = options_.branching;
  const bool fractional = branching.is_fractional();
  BernoulliSkipper extra(fractional ? branching.rho : 0.0);

  const auto apply = [&](Vertex w) {
    const std::uint64_t state = visit_[w];
    if (static_cast<Stamp>(state) == next) return;  // coalesce
    if (static_cast<Stamp>(state >> 32) >= base_) {
      visit_[w] = (state & 0xFFFFFFFF00000000ULL) | next;
    } else {
      visit_[w] = (static_cast<std::uint64_t>(next) << 32) | next;
      ++new_visits;
    }
    ++next_size;
    next_frontier_.push_back(w);
  };

  for (const Vertex v : frontier_) {
    if (!fs.can_send(v)) {
      // Down: the token is frozen in place — no sends, no accounting.
      apply(v);
      continue;
    }
    const unsigned pushes =
        fractional ? 1u + (extra.next(rng) ? 1u : 0u) : branching.k;
    accounting_.record_vertex_send(pushes);
    const auto degree = static_cast<std::uint32_t>(graph_->degree(v));
    bool any_delivered = false;
    for (unsigned p = 0; p < pushes; ++p) {
      const Vertex w = options_.weighted
                           ? alias_->draw(*graph_, v, rng)
                           : graph_->neighbor(v, rng.next_below32(degree));
      if (fs.transmit(v, p, w)) {
        apply(w);
        any_delivered = true;
      }
    }
    // Every push lost/blocked: the token is retained, not extinguished —
    // faults delay coverage, they never kill the process.
    if (!any_delivered) apply(v);
  }

  frontier_.swap(next_frontier_);
  std::sort(frontier_.begin(), frontier_.end());
  frontier_list_valid_ = true;
  frontier_size_ = next_size;
  visited_count_ += new_visits;
  round_ = next_round;
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

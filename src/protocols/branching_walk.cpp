// SPDX-License-Identifier: MIT
#include "protocols/branching_walk.hpp"

#include <algorithm>
#include <stdexcept>

#include "rand/sampling.hpp"

namespace cobra {

BranchingWalkProcess::BranchingWalkProcess(const Graph& g,
                                           BranchingWalkOptions options)
    : graph_(&g),
      options_(options),
      counts_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0),
      visited_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("branching walk requires a non-empty graph");
  }
  if (options_.k == 0) {
    throw std::invalid_argument("branching walk needs k>=1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "branching walk weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

void BranchingWalkProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("branching walk is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("branching walk start range");
  }
  // Particles occupy only vertices reached along edges, so a start-degree
  // check is sufficient even on graphs with isolated vertices.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("branching walk start must have degree >= 1");
  }
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  std::fill(visited_.begin(), visited_.end(), char{0});
  counts_[start] = 1;
  visited_[start] = 1;
  visited_count_ = 1;
  occupied_ = 1;
  population_ = 1;
  messages_ = 0;
  round_ = 0;
  saturated_ = false;
}

void BranchingWalkProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
void BranchingWalkProcess::step_with(Rng& rng, Faults& faults) {
  // Locals for the RNG, arrays and counters (see PushProcess::step_with).
  const Graph& g = *graph_;
  const GraphAliasTables* alias = alias_;
  const std::size_t n = g.num_vertices();
  const unsigned k = options_.k;
  const std::uint64_t cap = options_.vertex_cap;
  const std::uint64_t* counts = counts_.data();
  std::uint64_t* next = next_.data();
  const auto add = [&](Vertex w, std::uint64_t particles) {
    next[w] = std::min(cap, next[w] + particles);
  };
  std::fill(next_.begin(), next_.end(), std::uint64_t{0});
  std::uint64_t moves = 0;
  Rng local = rng;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t particles = counts[v];
    if (particles == 0) continue;
    if (!faults.can_send(v)) {
      add(v, particles);  // down: frozen in place (delay, never corrupt)
      continue;
    }
    const std::size_t degree = g.degree(v);
    // For small populations simulate each particle's k draws; for large
    // ones (>= degree * 64) every neighbour is hit with overwhelming
    // probability — split the population multinomially-approximate by
    // even shares, which preserves totals and occupied support.
    if (particles < static_cast<std::uint64_t>(degree) * 64) {
      std::uint32_t index = 0;
      for (std::uint64_t p = 0; p < particles; ++p) {
        bool delivered = false;
        for (unsigned i = 0; i < k; ++i) {
          const Vertex w =
              alias != nullptr
                  ? alias->draw(g, v, local)
                  : g.neighbor(v, local.next_below32(
                                      static_cast<std::uint32_t>(degree)));
          ++moves;
          if (faults.transmit(v, index++, w)) {
            add(w, 1);
            delivered = true;
          }
        }
        // Every spawn lost: the particle survives in place.
        if (!Faults::kLossless && !delivered) add(v, 1);
      }
    } else {
      const std::uint64_t out = particles * k;
      const std::uint64_t share = out / degree;
      if constexpr (Faults::kLossless) {
        for (const Vertex w : g.neighbors(v)) add(w, share);
      } else if (split_lossy(faults, v, out, share) == 0) {
        // Nothing deliverable (every neighbour blocked, or the scaled
        // share rounded to zero): the population survives in place —
        // faults delay the walk, they never extinguish it.
        add(v, particles);
      }
      moves += out;
      saturated_ = true;
    }
  }
  rng = local;
  std::uint64_t population = 0;
  std::size_t occupied = 0;
  for (Vertex v = 0; v < n; ++v) {
    counts_[v] = next_[v];
    if (counts_[v] > 0) {
      ++occupied;
      if (!visited_[v]) {
        visited_[v] = 1;
        ++visited_count_;
      }
    }
    population += counts_[v];
    saturated_ |= (counts_[v] >= cap);
  }
  messages_ += moves;
  population_ = population;
  occupied_ = occupied;
  ++round_;
}

std::uint64_t BranchingWalkProcess::split_lossy(FaultSession& fs, Vertex v,
                                                std::uint64_t out,
                                                std::uint64_t share) {
  const double keep = 1.0 - fs.model().options().drop;
  const auto delivered_share =
      static_cast<std::uint64_t>(static_cast<double>(share) * keep);
  fs.record_tx_bulk(v, out);
  std::uint64_t accounted = 0;
  std::uint64_t delivered = 0;
  for (const Vertex w : graph_->neighbors(v)) {
    if (fs.can_receive(w)) {
      if (delivered_share > 0) {
        next_[w] = std::min(options_.vertex_cap, next_[w] + delivered_share);
        fs.record_rx_bulk(w, delivered_share);
        delivered += delivered_share;
      }
      fs.record_dropped_bulk(share - delivered_share);
    } else {
      fs.record_blocked_bulk(share);
    }
    accounted += share;
  }
  // The integer-division remainder of the split is charged as loss.
  fs.record_dropped_bulk(out - accounted);
  return delivered;
}

BranchingWalkResult run_branching_walk(const Graph& g, Vertex start,
                                       BranchingWalkOptions options,
                                       Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (n == 0) {
    throw std::invalid_argument("branching walk requires a non-empty graph");
  }
  if (start >= n) throw std::invalid_argument("branching walk start range");
  if (g.degree(start) == 0) {
    throw std::invalid_argument("branching walk start must have degree >= 1");
  }
  if (options.k == 0) throw std::invalid_argument("branching walk needs k>=1");

  std::vector<std::uint64_t> counts(n, 0);
  std::vector<std::uint64_t> next(n, 0);
  std::vector<char> visited(n, 0);
  counts[start] = 1;
  visited[start] = 1;
  std::size_t visited_count = 1;

  BranchingWalkResult result;
  result.population_curve.push_back(1);
  std::size_t round = 0;
  while (visited_count < n && round < options.max_rounds) {
    std::fill(next.begin(), next.end(), 0);
    std::uint64_t moves = 0;
    for (Vertex v = 0; v < n; ++v) {
      const std::uint64_t particles = counts[v];
      if (particles == 0) continue;
      const std::size_t degree = g.degree(v);
      if (particles < static_cast<std::uint64_t>(degree) * 64) {
        for (std::uint64_t p = 0; p < particles; ++p) {
          for (unsigned i = 0; i < options.k; ++i) {
            const Vertex w = g.neighbor(
                v, rng.next_below32(static_cast<std::uint32_t>(degree)));
            next[w] = std::min(options.vertex_cap, next[w] + 1);
            ++moves;
          }
        }
      } else {
        const std::uint64_t out = particles * options.k;
        const std::uint64_t share = out / degree;
        for (const Vertex w : g.neighbors(v)) {
          next[w] = std::min(options.vertex_cap, next[w] + share);
        }
        moves += out;
        result.saturated = true;
      }
    }
    std::uint64_t population = 0;
    for (Vertex v = 0; v < n; ++v) {
      counts[v] = next[v];
      if (counts[v] > 0 && !visited[v]) {
        visited[v] = 1;
        ++visited_count;
      }
      population += counts[v];
      result.saturated |= (counts[v] >= options.vertex_cap);
    }
    result.total_messages += moves;
    result.population_curve.push_back(population);
    ++round;
  }
  result.covered = (visited_count == n);
  result.rounds = round;
  result.final_visited = visited_count;
  return result;
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
#include "core/sis.hpp"

#include <algorithm>
#include <stdexcept>

namespace cobra {

SisProcess::SisProcess(const Graph& g, SisOptions options)
    : graph_(&g),
      options_(options),
      infected_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("SisProcess requires a non-empty graph");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("SisProcess requires min degree >= 1");
  }
  if (!options_.branching.is_fractional() && options_.branching.k == 0) {
    throw std::invalid_argument("SisProcess requires branching k >= 1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "SisProcess weighted=true requires a weighted graph");
    }
    // Build (or fetch the cached) alias tables up front, outside the
    // trial loop.
    alias_ = &g.alias_tables();
  }
}

void SisProcess::do_reset(std::span<const Vertex> seeds) {
  if (seeds.empty()) {
    throw std::invalid_argument("SisProcess requires a non-empty seed set");
  }
  for (const Vertex v : seeds) {
    if (v >= graph_->num_vertices()) {
      throw std::invalid_argument("SIS seed out of range");
    }
  }
  std::fill(infected_.begin(), infected_.end(), char{0});
  std::fill(next_.begin(), next_.end(), char{0});
  count_ = 0;
  for (const Vertex v : seeds) {
    if (!infected_[v]) {
      infected_[v] = 1;
      ++count_;
    }
  }
  round_ = 0;
  probes_ = 0;
  peak_ = 0;
}

void SisProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
void SisProcess::step_with(Rng& rng, Faults& faults) {
  // The RNG, arrays and counters live in locals: a char store into the
  // next bitmap may alias anything, so members would be reloaded and
  // written back around every draw.
  const Graph& g = *graph_;
  const GraphAliasTables* alias = alias_;
  const std::size_t n = g.num_vertices();
  const Branching branching = options_.branching;
  const char* infected = infected_.data();
  char* next = next_.data();
  std::size_t next_count = 0;
  std::uint64_t probes = 0;
  std::uint64_t round_peak = 0;
  Rng local = rng;
  for (Vertex u = 0; u < n; ++u) {
    // Down or asleep: u cannot hear any probe response; state frozen.
    if (!faults.can_receive(u)) {
      next[u] = infected[u];
      next_count += next[u] != 0;
      continue;
    }
    const auto degree = static_cast<std::uint32_t>(g.degree(u));
    const unsigned draws = branching.is_fractional()
                               ? 1u + (local.bernoulli(branching.rho) ? 1u : 0u)
                               : branching.k;
    // Without losses the first infected neighbour decides u, so the rest
    // of its probes are never drawn; under faults every probe is sent.
    bool delivered = false;
    char hit = 0;
    unsigned drawn = 0;
    while (drawn < draws) {
      const Vertex w = alias != nullptr
                           ? alias->draw(g, u, local)
                           : g.neighbor(u, local.next_below32(degree));
      if (faults.transmit(u, drawn++, w)) {
        delivered = true;
        if (infected[w]) {
          hit = 1;
          if (Faults::kLossless) break;
        }
      }
    }
    probes += drawn;
    round_peak = std::max<std::uint64_t>(round_peak, drawn);
    next[u] = Faults::kLossless || delivered ? hit : infected[u];
    next_count += next[u] != 0;
  }
  rng = local;
  probes_ += probes;
  peak_ = std::max(peak_, round_peak);
  infected_.swap(next_);
  count_ = next_count;
  ++round_;
}

SisResult run_sis(const Graph& g, Vertex seed, SisOptions options, Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("run_sis requires a non-empty graph");
  if (seed >= n) throw std::invalid_argument("SIS seed out of range");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("run_sis requires min degree >= 1");
  }
  const Branching& branching = options.branching;
  if (!branching.is_fractional() && branching.k == 0) {
    throw std::invalid_argument("run_sis requires branching k >= 1");
  }

  std::vector<char> infected(n, 0);
  std::vector<char> next(n, 0);
  infected[seed] = 1;
  SisResult result;
  std::size_t count = 1;
  result.curve.reserve(std::min<std::size_t>(options.max_rounds + 1, 1u << 16));
  result.curve.push_back(count);
  std::size_t round = 0;
  while (round < options.max_rounds && count != 0 && count != n) {
    std::size_t next_count = 0;
    for (Vertex u = 0; u < n; ++u) {
      const auto degree = g.degree(u);
      const unsigned draws = branching.is_fractional()
                                 ? 1u + (rng.bernoulli(branching.rho) ? 1u : 0u)
                                 : branching.k;
      char hit = 0;
      for (unsigned i = 0; i < draws; ++i) {
        const Vertex w =
            g.neighbor(u, rng.next_below32(static_cast<std::uint32_t>(degree)));
        if (infected[w]) {
          hit = 1;
          break;
        }
      }
      next[u] = hit;
      next_count += hit;
    }
    infected.swap(next);
    count = next_count;
    ++round;
    result.curve.push_back(count);
  }
  result.rounds = round;
  result.final_count = count;
  if (count == 0) {
    result.outcome = SisOutcome::kExtinct;
  } else if (count == n) {
    result.outcome = SisOutcome::kFullInfection;
  } else {
    result.outcome = SisOutcome::kTimedOut;
  }
  return result;
}

}  // namespace cobra

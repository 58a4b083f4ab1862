// SPDX-License-Identifier: MIT
#include "protocols/pull.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PullProcess::PullProcess(const Graph& g, PullOptions options)
    : graph_(&g), options_(options), informed_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PullProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PullProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

void PullProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("pull is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("pull start out of range");
  }
  // Isolated vertices can never pull anything; they are skipped below and
  // only the start (whose draw seeds nothing but whose reachability
  // matters) must have an edge.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("pull start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  informed_[start] = 1;
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PullProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
void PullProcess::step_with(Rng& rng, Faults& faults) {
  // Locals for the RNG, arrays and counters (see PushProcess::step_with).
  const Graph& g = *graph_;
  const GraphAliasTables* alias = alias_;
  const std::size_t n = g.num_vertices();
  char* informed = informed_.data();
  std::size_t contacts = 0;
  std::size_t new_informed = 0;
  Rng local = rng;
  // Synchronous: pulls read the start-of-round state; since informed
  // vertices never revert, evaluating in place is equivalent.
  for (Vertex v = 0; v < n; ++v) {
    if (informed[v]) continue;
    const auto degree = static_cast<std::uint32_t>(g.degree(v));
    if (degree == 0) continue;  // isolated: nothing to pull from
    // A pull is a request/response pair: v must be up and awake to hear
    // the response, and the one transmit models the round trip (the
    // contacted neighbour must be up and awake to answer, and the channel
    // must not drop it).
    if (!faults.can_receive(v)) continue;
    ++contacts;
    const Vertex w = alias != nullptr
                         ? alias->draw(g, v, local)
                         : g.neighbor(v, local.next_below32(degree));
    // == 1: only start-of-round informed vertices answer.
    if (faults.transmit(v, 0, w) && informed[w] == 1) {
      informed[v] = 2;  // mark for activation after the sweep
      ++new_informed;
    }
  }
  rng = local;
  for (Vertex v = 0; v < n; ++v) {
    if (informed[v] == 2) informed[v] = 1;
  }
  count_ += new_informed;
  transmissions_ += contacts;
  if (contacts > 0) peak_ = 1;
  ++round_;
}

SpreadResult run_pull(const Graph& g, Vertex start, PullOptions options,
                      Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("run_pull requires a non-empty graph");
  if (start >= n) throw std::invalid_argument("pull start out of range");
  if (g.degree(start) == 0) {
    throw std::invalid_argument("run_pull start must have degree >= 1");
  }

  std::vector<char> informed(n, 0);
  informed[start] = 1;
  std::size_t count = 1;

  SpreadResult result;
  result.curve.push_back(count);
  std::size_t round = 0;
  while (count < n && round < options.max_rounds) {
    std::size_t contacts = 0;
    std::size_t new_informed = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (informed[v]) continue;
      const auto degree = static_cast<std::uint32_t>(g.degree(v));
      if (degree == 0) continue;
      ++contacts;
      const Vertex w = g.neighbor(v, rng.next_below32(degree));
      if (informed[w] == 1) {
        informed[v] = 2;
        ++new_informed;
      }
    }
    for (Vertex v = 0; v < n; ++v) {
      if (informed[v] == 2) informed[v] = 1;
    }
    count += new_informed;
    result.total_transmissions += contacts;
    result.peak_vertex_round_transmissions = 1;
    ++round;
    result.curve.push_back(count);
  }
  result.completed = count == n;
  result.rounds = round;
  result.final_count = count;
  return result;
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
#include "protocols/push_pull.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PushPullProcess::PushPullProcess(const Graph& g, PushPullOptions options)
    : graph_(&g),
      options_(options),
      informed_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PushPullProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PushPullProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    contactors_ += (g.degree(v) > 0);
  }
}

void PushPullProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("push-pull is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("push_pull start out of range");
  }
  // Isolated vertices make no contacts (skipped below); only the start
  // must have an edge.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("push_pull start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  std::fill(next_.begin(), next_.end(), char{0});
  informed_[start] = 1;
  next_[start] = 1;
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PushPullProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with(rng, *fs);
  } else {
    step_with(rng, kNoFaults);
  }
}

template <typename Faults>
void PushPullProcess::step_with(Rng& rng, Faults& faults) {
  // Locals for the RNG, arrays and counters (see PushProcess::step_with).
  const Graph& g = *graph_;
  const GraphAliasTables* alias = alias_;
  const std::size_t n = g.num_vertices();
  char* informed = informed_.data();
  char* next = next_.data();
  std::size_t contacts = 0;
  Rng local = rng;
  // Synchronous semantics: all contacts are evaluated against the state
  // at the start of the round.
  for (Vertex v = 0; v < n; ++v) {
    const auto degree = static_cast<std::uint32_t>(g.degree(v));
    if (degree == 0) continue;  // isolated: no one to contact
    // An informed vertex pushes (it must be up); an uninformed one pulls,
    // a request/response pair it must be up and awake to complete.
    const bool push = informed[v] != 0;
    if (push ? !faults.can_send(v) : !faults.can_receive(v)) continue;
    ++contacts;
    const Vertex w = alias != nullptr
                         ? alias->draw(g, v, local)
                         : g.neighbor(v, local.next_below32(degree));
    if (!faults.transmit(v, 0, w)) continue;
    if (push) {
      next[w] = 1;
    } else if (informed[w]) {
      next[v] = 1;
    }
  }
  rng = local;
  std::size_t count = 0;
  for (Vertex v = 0; v < n; ++v) {
    informed[v] = next[v];
    count += static_cast<std::size_t>(next[v]);
  }
  count_ = count;
  transmissions_ += contacts;
  if (contacts > 0) peak_ = 1;
  ++round_;
}

SpreadResult run_push_pull(const Graph& g, Vertex start,
                           PushPullOptions options, Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (n == 0) {
    throw std::invalid_argument("run_push_pull requires a non-empty graph");
  }
  if (start >= n) throw std::invalid_argument("push_pull start out of range");
  if (g.degree(start) == 0) {
    throw std::invalid_argument("run_push_pull start must have degree >= 1");
  }

  std::vector<char> informed(n, 0);
  std::vector<char> next(n, 0);
  informed[start] = 1;
  next[start] = 1;
  std::size_t count = 1;

  SpreadResult result;
  result.curve.push_back(count);
  std::size_t round = 0;
  while (count < n && round < options.max_rounds) {
    std::size_t contacts = 0;
    for (Vertex v = 0; v < n; ++v) {
      const auto degree = static_cast<std::uint32_t>(g.degree(v));
      if (degree == 0) continue;
      ++contacts;
      const Vertex w = g.neighbor(v, rng.next_below32(degree));
      if (informed[v]) {
        next[w] = 1;  // push
      } else if (informed[w]) {
        next[v] = 1;  // pull
      }
    }
    count = 0;
    for (Vertex v = 0; v < n; ++v) {
      informed[v] = next[v];
      count += static_cast<std::size_t>(next[v]);
    }
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

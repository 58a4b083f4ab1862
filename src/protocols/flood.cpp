// SPDX-License-Identifier: MIT
#include "protocols/flood.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

FloodProcess::FloodProcess(const Graph& g, FloodOptions options)
    : graph_(&g),
      options_(options),
      informed_(g.num_vertices(), 0),
      informed_list_(g.num_vertices()) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("FloodProcess requires a non-empty graph");
  }
}

std::uint64_t FloodProcess::peak_vertex_round_transmissions() const {
  // Under faults a down hub genuinely sends nothing, so report the actual
  // peak; the faults-off accounting keeps the legacy max-degree floor.
  if (fault_session() != nullptr) return peak_;
  return std::max<std::uint64_t>(peak_, graph_->max_degree());
}

void FloodProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("flood is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("flood start out of range");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  informed_[start] = 1;
  informed_list_[0] = start;
  first_sender_ = 0;
  informed_degree_sum_ = graph_->degree(start);
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void FloodProcess::do_step(Rng&) {
  if (FaultSession* fs = faults()) {
    step_with(*fs);
  } else {
    step_with(kNoFaults);
  }
}

template <typename Faults>
void FloodProcess::step_with(Faults& faults) {
  // Locals for the arrays and counters (see PushProcess::step_with).
  const Graph& g = *graph_;
  char* informed = informed_.data();
  Vertex* list = informed_list_.data();
  const std::size_t senders_end = count_;
  std::size_t count = count_;
  std::uint64_t degree_sum = informed_degree_sum_;
  std::uint64_t peak = peak_;
  std::uint64_t sends = 0;
  for (std::size_t i = first_sender_; i < senders_end; ++i) {
    const Vertex v = list[i];
    if (!faults.can_send(v)) continue;  // down: silent this round
    const auto degree = static_cast<std::uint64_t>(g.degree(v));
    peak = std::max(peak, degree);
    sends += degree;
    std::uint32_t index = 0;
    for (const Vertex w : g.neighbors(v)) {
      if (faults.transmit(v, index++, w) && !informed[w]) {
        informed[w] = 1;
        list[count++] = w;
        degree_sum += g.degree(w);
      }
    }
  }
  // Every informed vertex sends to all neighbours; without losses only
  // the frontier's sends can inform anyone, so only the frontier is
  // walked, but the message count charges everyone.
  transmissions_ += Faults::kLossless ? informed_degree_sum_ : sends;
  if (Faults::kLossless) first_sender_ = senders_end;
  informed_degree_sum_ = degree_sum;
  count_ = count;
  peak_ = peak;
  ++round_;
}

SpreadResult run_flood(const Graph& g, Vertex start, FloodOptions options) {
  const std::size_t n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("run_flood requires a non-empty graph");
  if (start >= n) throw std::invalid_argument("flood start out of range");

  std::vector<char> informed(n, 0);
  std::vector<Vertex> frontier{start};
  std::vector<Vertex> next_frontier;
  informed[start] = 1;
  std::size_t count = 1;

  SpreadResult result;
  result.curve.push_back(count);
  std::size_t round = 0;
  std::uint64_t informed_degree_sum = g.degree(start);
  while (count < n && !frontier.empty() && round < options.max_rounds) {
    result.total_transmissions += informed_degree_sum;
    next_frontier.clear();
    for (const Vertex v : frontier) {
      result.peak_vertex_round_transmissions = std::max(
          result.peak_vertex_round_transmissions,
          static_cast<std::uint64_t>(g.degree(v)));
      for (const Vertex w : g.neighbors(v)) {
        if (!informed[w]) {
          informed[w] = 1;
          next_frontier.push_back(w);
          informed_degree_sum += g.degree(w);
          ++count;
        }
      }
    }
    frontier.swap(next_frontier);
    ++round;
    result.curve.push_back(count);
  }
  result.completed = count == n;
  result.rounds = round;
  result.final_count = count;
  result.peak_vertex_round_transmissions =
      std::max<std::uint64_t>(result.peak_vertex_round_transmissions,
                              g.max_degree());
  return result;
}

}  // namespace cobra

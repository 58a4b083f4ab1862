// SPDX-License-Identifier: MIT
#include "protocols/push.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PushProcess::PushProcess(const Graph& g, PushOptions options)
    : graph_(&g),
      options_(options),
      informed_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PushProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PushProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  informed_list_.reserve(g.num_vertices());
  new_informed_.resize(g.num_vertices());
  neighbors_.count.resize(g.num_vertices());
}

void PushProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("push is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("push start out of range");
  }
  // Only the start needs an edge: every later sender was informed across
  // an edge, so its degree is >= 1. Isolated vertices elsewhere simply
  // stay uninformed (the trial reports completed = false).
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("push start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  informed_list_.clear();
  informed_[start] = 1;
  informed_list_.push_back(start);
  neighbors_.reset(draws_of(*graph_, alias_), start, faults() == nullptr);
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PushProcess::do_step(Rng& rng) {
  if (FaultSession* fs = faults()) {
    step_with<false>(rng, *fs);
  } else if (neighbors_.sparse) {
    step_with<true>(rng, kNoFaults);
  } else {
    step_with<false>(rng, kNoFaults);
  }
}

template <bool kSparse, typename Faults>
void PushProcess::step_with(Rng& rng, Faults& faults) {
  // The RNG, arrays and counters live in locals: a char store into the
  // informed bitmap may alias anything, so members would be reloaded and
  // written back around every draw.
  const Draws draw = draws_of(*graph_, alias_);
  const Vertex* senders = informed_list_.data();
  const std::size_t count = informed_list_.size();
  std::uint32_t* informed_neighbors = neighbors_.count.data();
  char* informed = informed_.data();
  Vertex* fresh = new_informed_.data();
  std::size_t fresh_count = 0;
  std::size_t live = 0;
  std::uint64_t sends = 0;
  Rng local = rng;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex v = senders[i];
    if (!faults.can_send(v)) continue;  // down: no push this round
    ++sends;
    std::uint32_t degree = 0;
    std::size_t begin = 0;
    const Vertex* nbrs = draw.neighbor_block(v, degree, begin);
    if (kSparse && informed_neighbors[v] == degree) {
      // Quiet: every neighbour is informed, so only the draw's RNG
      // consumption matters.
      (void)draw.draw_index(begin, degree, local);
      continue;
    }
    ++live;
    const Vertex w = nbrs[draw.draw_index(begin, degree, local)];
    if (!faults.transmit(v, 0, w)) continue;
    // Branch-free: w is appended, and kept only if it was uninformed.
    fresh[fresh_count] = w;
    fresh_count += static_cast<std::size_t>(informed[w] == 0);
    informed[w] = 1;
  }
  rng = local;
  merge_new_informed(fresh_count);
  if constexpr (kSparse) {
    std::size_t increments = 0;
    for (std::size_t i = 0; i < fresh_count; ++i) {
      increments +=
          InformedNeighbors::raise(draw, informed_neighbors, fresh[i]);
    }
    neighbors_.end_round(sends, live, increments);
  }
  transmissions_ += sends;
  if (sends > 0) peak_ = 1;
  ++round_;
}

void PushProcess::merge_new_informed(std::size_t fresh) {
  if (fresh == 0) return;
  std::sort(new_informed_.begin(), new_informed_.begin() + fresh);
  // Backward in-place merge of the round's sorted new informees into the
  // sorted sender list. All entries are distinct (the bitmap gates
  // insertion), and the list is reserved to n, so this is
  // allocation-free.
  std::size_t ai = informed_list_.size();
  std::size_t bi = fresh;
  informed_list_.resize(ai + bi);
  std::size_t oi = informed_list_.size();
  while (bi > 0) {
    if (ai > 0 && informed_list_[ai - 1] > new_informed_[bi - 1]) {
      informed_list_[--oi] = informed_list_[--ai];
    } else {
      informed_list_[--oi] = new_informed_[--bi];
    }
  }
}

SpreadResult run_push(const Graph& g, Vertex start, PushOptions options,
                      Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("run_push requires a non-empty graph");
  if (start >= n) throw std::invalid_argument("push start out of range");
  if (g.degree(start) == 0) {
    throw std::invalid_argument("run_push start must have degree >= 1");
  }

  std::vector<char> informed(n, 0);
  std::vector<Vertex> informed_list;
  informed_list.reserve(n);
  informed[start] = 1;
  informed_list.push_back(start);

  SpreadResult result;
  result.curve.push_back(1);
  std::size_t round = 0;
  while (informed_list.size() < n && round < options.max_rounds) {
    const std::size_t senders = informed_list.size();
    for (std::size_t i = 0; i < senders; ++i) {
      const Vertex v = informed_list[i];
      const Vertex w = g.neighbor(
          v, rng.next_below32(static_cast<std::uint32_t>(g.degree(v))));
      if (!informed[w]) {
        informed[w] = 1;
        informed_list.push_back(w);
      }
    }
    // Keep the sender list sorted so round r+1 iterates senders in
    // ascending vertex order (the same canonical order PushProcess and the
    // batched engine use).
    std::sort(informed_list.begin() + senders, informed_list.end());
    std::inplace_merge(informed_list.begin(), informed_list.begin() + senders,
                       informed_list.end());
    result.total_transmissions += senders;
    result.peak_vertex_round_transmissions = 1;
    ++round;
    result.curve.push_back(informed_list.size());
  }
  result.completed = informed_list.size() == n;
  result.rounds = round;
  result.final_count = informed_list.size();
  return result;
}

}  // namespace cobra

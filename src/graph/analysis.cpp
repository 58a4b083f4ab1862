// SPDX-License-Identifier: MIT
#include "graph/analysis.hpp"

#include <limits>
#include <memory>
#include <queue>

namespace cobra {

namespace {
constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

/// How many queue slots ahead count_components prefetches a neighbour
/// block: the BFS's block reads are random, so without it every vertex
/// waits out a cache miss.
constexpr std::size_t kPrefetchAhead = 8;
}  // namespace

bool is_connected(const Graph& g) { return count_components(g) <= 1; }

std::size_t count_components(const Graph& g) {
  // FIFO BFS from every unseen vertex. The queue is not zero-filled (each
  // slot is written before it is read), and it holds one spare slot: a
  // neighbour is written at the tail unconditionally and the tail moves
  // only if it was unseen, so the enqueue does not branch.
  const std::size_t n = g.num_vertices();
  const Vertex* adj = g.adjacency().data();
  std::vector<char> seen(n, 0);
  const auto queue = std::make_unique_for_overwrite<Vertex[]>(n + 1);
  std::size_t components = 0;
  for (Vertex start = 0; start < n; ++start) {
    if (seen[start]) continue;
    ++components;
    seen[start] = 1;
    queue[0] = start;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      if (head + kPrefetchAhead < tail) {
        __builtin_prefetch(adj + g.offset(queue[head + kPrefetchAhead]));
      }
      for (const Vertex w : g.neighbors(queue[head])) {
        queue[tail] = w;
        tail += seen[w] == 0;
        seen[w] = 1;
      }
    }
  }
  return components;
}

bool is_bipartite(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<signed char> colour(n, -1);
  std::vector<Vertex> stack;
  for (Vertex start = 0; start < n; ++start) {
    if (colour[start] != -1) continue;
    colour[start] = 0;
    stack.push_back(start);
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Vertex w : g.neighbors(v)) {
        if (colour[w] == -1) {
          colour[w] = static_cast<signed char>(1 - colour[v]);
          stack.push_back(w);
        } else if (colour[w] == colour[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::vector<std::size_t> bfs_distances(const Graph& g, Vertex source) {
  const std::size_t n = g.num_vertices();
  std::vector<std::size_t> dist(n, kUnreached);
  std::queue<Vertex> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const Vertex v = frontier.front();
    frontier.pop();
    for (const Vertex w : g.neighbors(v)) {
      if (dist[w] == kUnreached) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

std::optional<std::size_t> eccentricity(const Graph& g, Vertex source) {
  std::size_t ecc = 0;
  for (const std::size_t d : bfs_distances(g, source)) {
    if (d == kUnreached) return std::nullopt;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::optional<std::size_t> diameter(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  std::size_t best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto ecc = eccentricity(g, v);
    if (!ecc) return std::nullopt;
    best = std::max(best, *ecc);
  }
  return best;
}

std::size_t degree_sum(const Graph& g) {
  std::size_t total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  return total;
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stream.hpp"

namespace cobra::gen {

namespace {

/// Canonical 64-bit key of an undirected edge for hash-set membership.
std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// random_regular's working graph: a fixed-degree slot CSR in which vertex
/// v owns slots [v*r, v*r + r) of `adj_`, kept sorted per block. A loop at
/// v shows as two entries v in v's block and a multi-edge as adjacent
/// equal entries, so defects are found and removed without any hash set.
class SlotGraph {
 public:
  SlotGraph(std::size_t n, std::size_t r)
      : n_(n), r_(r), adj_(n * r), stubs_(n * r) {}

  /// Draws a uniform configuration-model pairing of the n*r stubs: a
  /// Fisher-Yates shuffle run two slots at a time, in which the last
  /// unpaired stub s takes a uniformly random partner t among the others,
  /// and the edge {s/r, t/r} goes straight into the two blocks. That is
  /// half the draws of shuffling all stubs and pairing neighbours, with
  /// the same law. With `stop_at_defect` it returns false at the first
  /// loop or multi-edge, a pairing that could not end simple, so redrawing
  /// stays exact rejection. Otherwise it sorts every block, lists those
  /// holding an adjacent equal pair (a loop or a multi-edge) and returns
  /// whether the pairing is simple.
  bool pair_stubs(Rng& rng, bool stop_at_defect) {
    std::iota(stubs_.begin(), stubs_.end(), Vertex{0});
    if (stop_at_defect) std::fill(adj_.begin(), adj_.end(), kUnpaired);
    const auto r = static_cast<Vertex>(r_);
    for (std::size_t end = stubs_.size(); end > 0; end -= 2) {
      const Vertex s = stubs_[end - 1];
      const std::uint32_t j =
          rng.next_below32(static_cast<std::uint32_t>(end - 1));
      const Vertex t = stubs_[j];
      stubs_[j] = stubs_[end - 2];
      const Vertex u = s / r;
      const Vertex w = t / r;
      if (stop_at_defect &&
          (u == w || std::find(block(u), block(u) + r_, w) != block(u) + r_)) {
        return false;
      }
      adj_[s] = w;
      adj_[t] = u;
    }
    defective_.clear();
    for (Vertex v = 0; v < n_; ++v) {
      if (detail::sort_neighbour_list(block(v), block(v) + r_)) {
        defective_.push_back(v);
      }
    }
    return defective_.empty();
  }

  /// Removes every loop and surplus multi-edge copy by degree-preserving
  /// switches. A uniform slot j gives a uniform oriented edge {a, b}; the
  /// switch {u,v},{a,b} -> {u,a},{v,b} is taken only when {a,b} is simple
  /// and neither new edge is a loop or already present. Such a switch
  /// touches no other defect, so each one is removed exactly once. Returns
  /// false if the repair stalls (the caller redraws the pairing).
  bool repair(Rng& rng) {
    std::vector<std::pair<Vertex, Vertex>> defects;
    for (const Vertex v : defective_) {
      const Vertex* first = block(v);
      const Vertex* last = first + r_;
      for (const Vertex* run = first; run != last;) {
        const Vertex w = *run;
        const Vertex* end = std::upper_bound(run, last, w);
        const auto copies = static_cast<std::size_t>(end - run);
        // A loop fills two of v's slots; a multi-edge is listed at its
        // smaller endpoint, one defect per surplus copy.
        if (w == v) defects.insert(defects.end(), copies / 2, {v, v});
        if (w > v) defects.insert(defects.end(), copies - 1, {v, w});
        run = end;
      }
    }
    const auto slots = static_cast<std::uint32_t>(adj_.size());
    const std::size_t failure_cap = 200 * (defects.size() + 1);
    std::size_t failures = 0;
    while (!defects.empty()) {
      const auto [u, v] = defects.back();
      const std::uint32_t j = rng.next_below32(slots);
      const auto a = static_cast<Vertex>(j / r_);
      const Vertex b = adj_[j];
      const std::size_t lo = std::size_t{a} * r_;
      const bool partner_simple = a != b &&
                                  (j == lo || adj_[j - 1] != b) &&
                                  (j + 1 == lo + r_ || adj_[j + 1] != b);
      if (!partner_simple || u == a || v == b || has_edge(u, a) ||
          has_edge(v, b)) {
        if (++failures > failure_cap) return false;
        continue;
      }
      replace(u, v, a);
      replace(v, u, b);
      replace(a, b, u);
      replace(b, a, v);
      defects.pop_back();
    }
    return true;
  }

  /// Freezes into a Graph. The O(n*r) strictly-increasing, no-self-entry
  /// scan guards the trusted CSR constructor.
  Graph freeze(std::string name) {
    for (Vertex v = 0; v < n_; ++v) {
      const Vertex* first = block(v);
      for (std::size_t i = 0; i < r_; ++i) {
        if (first[i] == v || (i > 0 && first[i - 1] >= first[i])) {
          throw std::logic_error("random_regular: non-simple block at vertex " +
                                 std::to_string(v));
        }
      }
    }
    std::vector<std::uint32_t> offsets(n_ + 1);
    for (std::size_t v = 0; v <= n_; ++v) {
      offsets[v] = static_cast<std::uint32_t>(v * r_);
    }
    return Graph(std::move(offsets), std::move(adj_), std::move(name),
                 Graph::DegreeRange{r_, r_});
  }

 private:
  Vertex* block(Vertex v) noexcept { return adj_.data() + std::size_t{v} * r_; }

  bool has_edge(Vertex v, Vertex w) noexcept {
    return std::binary_search(block(v), block(v) + r_, w);
  }

  /// Replaces one entry `from` of v's sorted block by `to`, shifting the
  /// entries in between: O(r) per switch, and the block stays sorted.
  void replace(Vertex v, Vertex from, Vertex to) noexcept {
    Vertex* first = block(v);
    Vertex* last = first + r_;
    Vertex* p = std::lower_bound(first, last, from);
    if (to > from) {
      for (; p + 1 < last && p[1] < to; ++p) p[0] = p[1];
    } else {
      for (; p > first && p[-1] > to; --p) p[0] = p[-1];
    }
    *p = to;
  }

  /// Fill of a slot not yet paired; never a vertex id, as n < 2^32 / r.
  static constexpr Vertex kUnpaired = ~Vertex{0};

  std::size_t n_;
  std::size_t r_;
  std::vector<Vertex> adj_;
  std::vector<Vertex> stubs_;  ///< unpaired stub ids while pairing
  std::vector<Vertex> defective_;  ///< blocks with a loop or multi-edge
};

/// Stub ids are u32, so a pairing holds fewer than 2^32 stubs.
constexpr std::uint64_t kMaxStubs = std::uint64_t{1} << 32;

}  // namespace

Graph random_regular(std::size_t n, std::size_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular requires r < n");
  if ((n * r) % 2 != 0) {
    throw std::invalid_argument("random_regular requires n*r even");
  }
  if (r != 0 && n > (kMaxStubs - 1) / r) {
    throw std::invalid_argument("random_regular requires n*r < 2^32");
  }
  std::string name = "random_regular(n=" + std::to_string(n) +
                     ",r=" + std::to_string(r) + ")";
  if (r == n - 1) return complete(n);  // only one (n-1)-regular graph

  // A pairing is simple with probability about exp(-(r*r-1)/4): for r <= 3
  // redrawing until it is (~7.4 expected attempts at r = 3) keeps the
  // sample exactly uniform. Larger r repairs its defects in place, which is
  // only approximately uniform (bias bounded in tests/substrate_test.cpp).
  SlotGraph graph(n, r);
  const int rejection_budget = r <= 3 ? 256 : 0;
  for (int attempt = 0; attempt < rejection_budget; ++attempt) {
    if (graph.pair_stubs(rng, /*stop_at_defect=*/true)) {
      return graph.freeze(std::move(name));
    }
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    graph.pair_stubs(rng, /*stop_at_defect=*/false);
    if (graph.repair(rng)) return graph.freeze(std::move(name));
  }
  throw std::runtime_error("random_regular: switch repair failed to converge");
}

Graph connected_random_regular(std::size_t n, std::size_t r, Rng& rng,
                               int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = random_regular(n, r, rng);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "connected_random_regular: no connected sample in " +
      std::to_string(max_attempts) + " attempts (r=" + std::to_string(r) +
      " too small?)");
}

namespace {

/// Inverse of the row-major pair ranking: linear index t (0-based over the
/// C(n,2) pairs ordered by larger endpoint, then smaller) -> {w, v} with
/// w < v. Row v covers indices [v(v-1)/2, v(v+1)/2).
std::pair<Vertex, Vertex> unrank_pair(std::uint64_t t) {
  auto v = static_cast<std::uint64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(t))) * 0.5);
  // The double sqrt is exact to ~2^52; nudge across any rounding error.
  while (v > 1 && v * (v - 1) / 2 > t) --v;
  while ((v + 1) * v / 2 <= t) ++v;
  return {static_cast<Vertex>(t - v * (v - 1) / 2), static_cast<Vertex>(v)};
}

}  // namespace

EdgeStream erdos_renyi_stream(std::size_t n, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("erdos_renyi requires p in [0,1]");
  }
  EdgeStream stream;
  stream.name =
      "erdos_renyi(n=" + std::to_string(n) + ",p=" + std::to_string(p) + ")";
  stream.n = n;
  if (n < 2 || p == 0.0) return stream;  // empty; no RNG draw (legacy order)

  // Geometric skipping (Batagelj-Brandes) over the linear pair-index
  // space, split into deterministic chunks: chunk c runs the skip
  // sequence over its own index subrange with its own RNG stream
  // (Rng::for_trial(master, c)), so the sample is a pure function of
  // (seed, n, p) — independent of thread count and of whether the stream
  // is built in core or scattered to disk. The chunk count depends only
  // on n. p == 1 enumerates every pair (the in-core generator shortcuts
  // to complete(n) before reaching here).
  const double log_q = p == 1.0 ? 0.0 : std::log1p(-p);
  const auto nn = static_cast<std::uint64_t>(n);
  const std::uint64_t total_pairs = nn * (nn - 1) / 2;
  const std::uint64_t master = rng();
  const std::uint64_t chunks =
      std::min<std::uint64_t>(4096, std::max<std::uint64_t>(1, nn / 4096));
  const std::uint64_t chunk_pairs = (total_pairs + chunks - 1) / chunks;
  stream.count = total_pairs;
  stream.chunk_items = chunk_pairs;
  stream.edges_hint = p == 1.0
                          ? total_pairs
                          : static_cast<std::uint64_t>(
                                p * static_cast<double>(total_pairs));
  if (p == 1.0) {
    stream.emit = [](std::uint64_t begin, std::uint64_t end,
                     std::vector<std::pair<Vertex, Vertex>>& out) {
      for (std::uint64_t t = begin; t < end; ++t) {
        out.push_back(unrank_pair(t));
      }
    };
    return stream;
  }
  stream.emit = [master, log_q, chunk_pairs](
                    std::uint64_t begin, std::uint64_t end,
                    std::vector<std::pair<Vertex, Vertex>>& out) {
    Rng chunk_rng = Rng::for_trial(master, begin / chunk_pairs);
    std::uint64_t t = begin;
    const std::uint64_t stop = end;
    while (true) {
      const double u01 = 1.0 - chunk_rng.next_double();
      const double skip = std::floor(std::log(u01) / log_q);
      if (skip >= static_cast<double>(stop - t)) break;
      t += static_cast<std::uint64_t>(skip);
      out.push_back(unrank_pair(t));
      if (++t >= stop) break;
    }
  };
  return stream;
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  if (p == 1.0 && n >= 2) return complete(n);
  // Built *from the stream*: the in-core and out-of-core paths consume the
  // identical chunked emitter (same master draw, same chunk boundaries),
  // which is what pins their byte identity.
  return build_stream(erdos_renyi_stream(n, p, rng));
}

Graph watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  if (k % 2 != 0 || k < 2) {
    throw std::invalid_argument("watts_strogatz requires even k >= 2");
  }
  if (k >= n) throw std::invalid_argument("watts_strogatz requires k < n");
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("watts_strogatz requires beta in [0,1]");
  }
  std::unordered_set<std::uint64_t> present;
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(n * k / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t s = 1; s <= k / 2; ++s) {
      const auto w = static_cast<Vertex>((v + s) % n);
      edges.emplace_back(v, w);
      present.insert(edge_key(v, w));
    }
  }
  for (auto& [u, w] : edges) {
    if (!rng.bernoulli(beta)) continue;
    // Rewire the far endpoint; skip if u is already adjacent to everyone.
    for (int tries = 0; tries < 64; ++tries) {
      const auto candidate = static_cast<Vertex>(rng.next_below(n));
      if (candidate == u || candidate == w) continue;
      const std::uint64_t key = edge_key(u, candidate);
      if (present.count(key) != 0) continue;
      present.erase(edge_key(u, w));
      present.insert(key);
      w = candidate;
      break;
    }
  }
  GraphBuilder builder(n);
  for (const auto& [u, w] : edges) builder.add_edge(u, w);
  return builder.build("watts_strogatz(n=" + std::to_string(n) +
                       ",k=" + std::to_string(k) +
                       ",beta=" + std::to_string(beta) + ")");
}

Graph random_geometric(std::size_t n, double radius, Rng& rng) {
  if (radius <= 0.0 || radius >= 0.5) {
    throw std::invalid_argument(
        "random_geometric requires radius in (0, 0.5) (torus metric)");
  }
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }
  // Bucket the unit torus into cells of side >= radius; only neighbouring
  // cells can contain an edge partner.
  const auto cells =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / radius));
  const double cell_size = 1.0 / static_cast<double>(cells);
  std::vector<std::vector<Vertex>> buckets(cells * cells);
  const auto cell_of = [&](double x, double y) {
    auto cx = static_cast<std::size_t>(x / cell_size);
    auto cy = static_cast<std::size_t>(y / cell_size);
    cx = std::min(cx, cells - 1);
    cy = std::min(cy, cells - 1);
    return cx * cells + cy;
  };
  for (std::size_t i = 0; i < n; ++i) {
    buckets[cell_of(xs[i], ys[i])].push_back(static_cast<Vertex>(i));
  }
  const auto torus_dist2 = [&](std::size_t i, std::size_t j) {
    double dx = std::fabs(xs[i] - xs[j]);
    double dy = std::fabs(ys[i] - ys[j]);
    dx = std::min(dx, 1.0 - dx);
    dy = std::min(dy, 1.0 - dy);
    return dx * dx + dy * dy;
  };
  GraphBuilder builder(n);
  const double r2 = radius * radius;
  for (std::size_t cx = 0; cx < cells; ++cx) {
    for (std::size_t cy = 0; cy < cells; ++cy) {
      const auto& here = buckets[cx * cells + cy];
      // Same-cell pairs.
      for (std::size_t a = 0; a < here.size(); ++a) {
        for (std::size_t b = a + 1; b < here.size(); ++b) {
          if (torus_dist2(here[a], here[b]) <= r2) {
            builder.add_edge(here[a], here[b]);
          }
        }
      }
      // Half of the 8 neighbouring cells (forward wrap) to see each pair
      // of cells exactly once.
      const std::ptrdiff_t offsets[4][2] = {{1, 0}, {0, 1}, {1, 1}, {1, -1}};
      for (const auto& offset : offsets) {
        const std::size_t ox = (cx + static_cast<std::size_t>(
                                         offset[0] + static_cast<std::ptrdiff_t>(cells))) %
                               cells;
        const std::size_t oy = (cy + static_cast<std::size_t>(
                                         offset[1] + static_cast<std::ptrdiff_t>(cells))) %
                               cells;
        if (ox == cx && oy == cy) continue;  // tiny grids wrap onto self
        const auto& there = buckets[ox * cells + oy];
        for (const Vertex a : here) {
          for (const Vertex b : there) {
            if (torus_dist2(a, b) <= r2) builder.add_edge(a, b);
          }
        }
      }
    }
  }
  // Tiny grids (cells <= 2) can queue a cross-cell pair twice via wraps;
  // dedup keeps the generator total.
  return builder.build_dedup("random_geometric(n=" + std::to_string(n) +
                             ",r=" + std::to_string(radius) + ")");
}

Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng) {
  if (attach == 0 || n < attach + 1) {
    throw std::invalid_argument("barabasi_albert requires 1 <= attach < n");
  }
  GraphBuilder builder(n);
  // Repeated-endpoint list: vertex v appears deg(v) times; sampling a
  // uniform entry is sampling proportional to degree.
  std::vector<Vertex> endpoints;
  for (Vertex u = 0; u <= attach; ++u) {
    for (Vertex v = u + 1; v <= attach; ++v) {
      builder.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<Vertex> chosen;
  for (Vertex v = static_cast<Vertex>(attach + 1); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < attach) {
      const Vertex candidate = endpoints[static_cast<std::size_t>(
          rng.next_below(endpoints.size()))];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
        chosen.push_back(candidate);
      }
    }
    for (const Vertex target : chosen) {
      builder.add_edge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return builder.build("barabasi_albert(n=" + std::to_string(n) +
                       ",m=" + std::to_string(attach) + ")");
}

}  // namespace cobra::gen

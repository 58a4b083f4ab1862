// SPDX-License-Identifier: MIT
//
// Mutable edge-list accumulator that validates and freezes into an
// immutable CSR Graph. Most generators and the edge-list reader construct
// graphs through this class, which establishes the CSR invariants (sorted
// neighbour lists, no self-loops, no multi-edges, symmetric adjacency).
// Three paths build their CSR directly and check the invariants
// themselves: random_regular's fixed-degree slot CSR and the out-of-core
// shard assembler (graph/stream.cpp), both through the builder's
// per-vertex sort (detail::sort_neighbour_list), and the .cgr loaders
// (graph/io_binary.cpp).
//
// build()/build_dedup() assemble the CSR with a two-pass count/scatter
// algorithm parallelized on the sim/ thread pool: edge chunks histogram
// their endpoints per vertex bucket, an exclusive prefix gives every chunk
// a private slot range in every bucket, so the scatter needs no atomics,
// then per-vertex neighbour sorts (which also detect duplicates as
// adjacent equal entries) run per bucket. No global edge sort is
// performed. Because the finished CSR is canonical (sorted
// neighbourhoods), the result is bitwise-identical whatever the thread
// count or scatter interleaving; tests/golden_digest_test.cpp pins the
// .cgr bytes of every generator family at 1, 4 and 8 threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace cobra {

class ThreadPool;

class GraphBuilder {
 public:
  /// Builder for a graph on n vertices.
  explicit GraphBuilder(std::size_t n);

  /// Pre-sizes the edge queue (generators that know m up front).
  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Queues the undirected edge {u, v}. Throws std::invalid_argument on
  /// out-of-range endpoints or self-loops. Duplicate edges are detected at
  /// build() time (cheaper than a hash set per add_edge).
  void add_edge(Vertex u, Vertex v);

  /// Deterministic parallel edge generation: splits [0, count) into
  /// fixed-size chunks (independent of thread count), runs
  /// emit(begin, end, out) for each chunk — concurrently when the range is
  /// large — and appends the chunk buffers in chunk order, so the queued
  /// edge sequence is identical to a serial emit whatever the thread
  /// count. Emitted edges are validated like add_edge (the first offending
  /// edge in emit order is reported); emit must be pure (no shared mutable
  /// state). `chunk_items` overrides the default chunk size for generators
  /// whose [0, count) range is not a vertex count (e.g. G(n,p) chunks its
  /// pair-index space); it must be a pure function of the generator's
  /// parameters, never of the thread count.
  void add_edges_chunked(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t,
                               std::vector<std::pair<Vertex, Vertex>>&)>& emit,
      std::size_t chunk_items = 0);

  /// True if {u,v} was queued already. O(queued edges) — intended for
  /// generators that add few edges or want occasional checks; heavy users
  /// should dedup themselves.
  bool has_edge_queued(Vertex u, Vertex v) const;

  std::size_t num_vertices() const noexcept { return num_vertices_; }
  std::size_t num_edges_queued() const noexcept { return edges_.size(); }

  /// Freezes into a Graph named `name` (parallel two-pass assembly).
  /// Throws std::invalid_argument if any duplicate undirected edge was
  /// queued, naming the (min, max)-smallest one. The builder is left
  /// empty.
  Graph build(std::string name);

  /// Like build(), but silently drops duplicate edges instead of throwing —
  /// for random generators (e.g. G(n,p) contact overlays) where collisions
  /// are expected and harmless.
  Graph build_dedup(std::string name);

  /// Process-wide parallelism of the graph substrate (assembly, weight
  /// fill, alias build, streamed scatter): set_default_threads(0) (the
  /// default) means hardware_concurrency; 1 forces serial execution of the
  /// parallel algorithms (bitwise-identical output either way). Benches
  /// and the thread-count-independence tests set this explicitly.
  static void set_default_threads(std::size_t threads) noexcept;
  /// The resolved thread count: the configured value, else
  /// hardware_concurrency, at least 1.
  static std::size_t default_threads() noexcept;

 private:
  std::size_t num_vertices_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
};

namespace detail {
/// Fixed vertex-chunk size of the substrate's per-vertex passes (dedup,
/// weight fill, alias build): independent of the thread count, so chunk
/// boundaries never depend on parallelism.
inline constexpr std::size_t kVertexChunk = 1 << 15;

/// The substrate's one rule for running a chunked pass (assembly, edge
/// emission, weight fill, alias build): a scoped pool of
/// GraphBuilder::default_threads() - 1 workers, the calling thread
/// joining in, when the pass is worth it and more than one thread is
/// configured; else a serial loop on the calling thread.
class BuildPool {
 public:
  /// `worthwhile`: the pass is large enough to pay for a pool (each pass
  /// keeps its own threshold).
  explicit BuildPool(bool worthwhile);
  ~BuildPool();
  BuildPool(const BuildPool&) = delete;
  BuildPool& operator=(const BuildPool&) = delete;

  /// Runs fn(chunk) for every chunk in [0, chunks); exceptions thrown by
  /// fn are captured and the first one rethrown on the calling thread
  /// (pool tasks must not throw).
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& fn);

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// The builder's canonical per-vertex neighbour sort (branch-free sorting
/// networks for degrees 2..8, insertion sort for 9..32, std::sort above),
/// exposed for the out-of-core shard assembler (graph/stream.cpp), so
/// streamed CSR bytes match in-core builds exactly, and for
/// random_regular's slot CSR. Returns true if the sorted range contains a
/// duplicate.
bool sort_neighbour_list(Vertex* first, Vertex* last);
}  // namespace detail

}  // namespace cobra

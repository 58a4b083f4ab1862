// SPDX-License-Identifier: MIT
//
// Immutable undirected graph in compressed-sparse-row (CSR) form.
//
// This is the substrate every other subsystem runs on: the COBRA/BIPS
// engines sample uniform neighbours (O(1) via neighbors(v)[i]); the
// spectral module does mat-vec sweeps over the adjacency; the generators
// construct instances through GraphBuilder (builder.hpp).
//
// Design choices:
//  * Vertices are dense uint32_t ids [0, n). 4 bytes/endpoint keeps large
//    sweeps cache-friendly; n up to ~4e9 is far beyond experiment scale.
//  * Offsets are width-adaptive: stored as uint32 when the adjacency has
//    fewer than 2^32 endpoints (every realistic instance: n=2^26 at r=16 is
//    2^30 endpoints), falling back to uint64 transparently. This roughly
//    halves the offsets' resident size at large n, which matters because
//    sparse instances are offset-dominated (offsets are n+1 entries vs 2m
//    adjacency entries). Hot loops that want raw pointers branch once on
//    offsets_are_wide(); everything else goes through degree()/neighbors().
//  * One storage model: every array is a read-only view over memory held
//    by one shared, immutable backing handle — the vectors the graph took
//    over at construction, or map_cgr's file mapping (graph/io.hpp). A
//    copy shares the arrays (the compiler writes copy and move), so
//    copying a graph costs two reference counts whatever its size.
//    Processes keep their mutable state outside the graph.
//  * Multi-edges and self-loops are rejected at build time: the paper's
//    processes are defined on simple graphs, and "select k neighbours
//    uniformly" is only unambiguous when the neighbourhood is a set.
//  * Edge weights are optional and cost nothing when absent: a weighted
//    graph carries one float per CSR half-edge (weights()[offset(v)+i] is
//    the weight of {v, neighbor(v,i)}; both copies of an undirected edge
//    carry the same value), 8m bytes total. Weighted neighbour draws go
//    through per-vertex Vose alias tables (rand/alias.hpp) built lazily on
//    first use and cached on the Graph — thread-safe, one build however
//    many processes share the instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rand/rng.hpp"

namespace cobra {

using Vertex = std::uint32_t;

class Graph;

/// CSR-aligned per-vertex alias tables for O(1) weighted neighbour draws:
/// prob()/alias() parallel the adjacency array (2m entries), so vertex v's
/// table occupies slots [offset(v), offset(v+1)). Built by
/// Graph::alias_tables(); 16m bytes (float prob + u32 alias per half-edge).
class GraphAliasTables {
 public:
  std::span<const float> prob() const noexcept { return prob_; }
  std::span<const std::uint32_t> alias() const noexcept { return alias_; }

  /// Resident bytes of the two table arrays.
  std::size_t memory_bytes() const noexcept {
    return prob_.size() * (sizeof(float) + sizeof(std::uint32_t));
  }

  /// Index of the chosen neighbour within the block starting at CSR slot
  /// `begin` with `degree` entries — THE weighted draw sequence: a
  /// uniform slot via next_below32 (one draw, plus Lemire's rare
  /// rejection redraws) then the alias coin via next_double; O(1)
  /// whatever the degree. Every weighted consumer (the hot pointer-only
  /// engine loops included) draws through this one definition, so trial
  /// results stay reproducible across engines.
  std::uint32_t draw_index(std::size_t begin, std::uint32_t degree,
                           Rng& rng) const noexcept {
    std::uint32_t i = rng.next_below32(degree);
    const std::size_t slot = begin + i;
    if (rng.next_double() >= prob_[slot]) i = alias_[slot];
    return i;
  }

  /// One weighted draw among v's neighbours: P(neighbor(v,i)) =
  /// weight(v,i) / strength(v). Defined inline below Graph.
  Vertex draw(const Graph& g, Vertex v, Rng& rng) const noexcept;

 private:
  friend class Graph;
  std::vector<float> prob_;
  std::vector<std::uint32_t> alias_;
};

/// True if a CSR with `endpoints` (= 2m) adjacency entries fits 32-bit
/// offsets. Exposed so the width-selection boundary is testable without
/// materializing a 16 GiB adjacency.
constexpr bool csr_offsets_fit_32bit(std::uint64_t endpoints) noexcept {
  return endpoints <= 0xFFFFFFFFULL;
}

class Graph {
 public:
  /// Degree extrema a constructor may be given instead of scanning the
  /// offsets (the builder's prefix pass and random_regular know them).
  struct DegreeRange {
    std::size_t min = 0;
    std::size_t max = 0;
  };

  /// Empty graph: one zero offset, no vertices.
  Graph();

  /// Takes over owned CSR arrays: offsets.size() == n+1,
  /// adjacency.size() == offsets[n] == 2m, neighbour lists sorted. The
  /// inputs are trusted (GraphBuilder and the loaders establish the
  /// invariants); `degrees`, when given, replaces the O(n) degree scan.
  /// The u64 form narrows the offsets to u32 storage when 2m < 2^32.
  Graph(std::vector<std::uint32_t> offsets, std::vector<Vertex> adjacency,
        std::string name, std::optional<DegreeRange> degrees = std::nullopt);
  Graph(std::vector<std::uint64_t> offsets, std::vector<Vertex> adjacency,
        std::string name, std::optional<DegreeRange> degrees = std::nullopt);

  /// Borrowed storage (zero-copy .cgr loading): the spans view memory
  /// held by `backing` — map_cgr's file image — which the graph keeps
  /// alive. Trusted like the owned constructors (map_cgr validates the
  /// full invariant set over the mapping first); `weights` may be empty.
  /// offsets.size() must be n+1 >= 1.
  Graph(std::span<const std::uint32_t> offsets,
        std::span<const Vertex> adjacency, std::span<const float> weights,
        std::shared_ptr<const void> backing, std::string name);
  Graph(std::span<const std::uint64_t> offsets,
        std::span<const Vertex> adjacency, std::span<const float> weights,
        std::shared_ptr<const void> backing, std::string name);

  /// Copy of `other` carrying a different display name (metadata only).
  Graph(const Graph& other, std::string name);

  std::size_t num_vertices() const noexcept { return num_vertices_; }

  /// Number of undirected edges m (adjacency stores 2m endpoints).
  std::size_t num_edges() const noexcept { return adj_view_.size() / 2; }

  /// CSR offset of v's neighbour block (v in [0, n]).
  std::size_t offset(Vertex v) const noexcept {
    return wide_ ? off64_view_[v] : off32_view_[v];
  }

  std::size_t degree(Vertex v) const noexcept {
    return offset(v + 1) - offset(v);
  }

  /// Sorted neighbour list of v.
  std::span<const Vertex> neighbors(Vertex v) const noexcept {
    const std::size_t begin = offset(v);
    return {adj_view_.data() + begin, offset(v + 1) - begin};
  }

  /// The i-th neighbour of v (0 <= i < degree(v)); the process engines'
  /// "choose a uniform neighbour" is neighbor(v, rng.next_below(degree)).
  Vertex neighbor(Vertex v, std::size_t i) const noexcept {
    return adj_view_[offset(v) + i];
  }

  /// True if {u, v} is an edge. O(log degree) binary search.
  bool has_edge(Vertex u, Vertex v) const noexcept;

  /// True if every vertex has the same degree.
  bool is_regular() const noexcept { return regularity_ >= 0; }

  /// Common degree r for regular graphs, -1 otherwise.
  int regularity() const noexcept { return regularity_; }

  std::size_t min_degree() const noexcept { return min_degree_; }
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Human-readable family name assigned by the generator (e.g.
  /// "random_regular(n=1024,r=8)"); used in experiment tables.
  const std::string& name() const noexcept { return name_; }

  // ---- raw CSR access (spectral kernels, process engines, binary IO) ----
  //
  // Exactly one of offsets32()/offsets64() is non-empty (for a non-empty
  // graph); branch on offsets_are_wide() once outside the hot loop.

  /// True when offsets are stored as uint64 (2m >= 2^32).
  bool offsets_are_wide() const noexcept { return wide_; }

  std::span<const std::uint32_t> offsets32() const noexcept {
    return off32_view_;
  }
  std::span<const std::uint64_t> offsets64() const noexcept {
    return off64_view_;
  }

  std::span<const Vertex> adjacency() const noexcept { return adj_view_; }

  /// Bytes per stored offset entry (4 or 8).
  std::size_t offset_bytes() const noexcept { return wide_ ? 8 : 4; }

  /// Logical bytes of the CSR arrays (offsets + adjacency + weights when
  /// present), whether they are owned or mapped; campaigns that want
  /// honest per-job RAM numbers split it as resident_bytes() +
  /// mapped_bytes().
  std::size_t memory_bytes() const noexcept {
    return (num_vertices_ + 1) * offset_bytes() +
           adj_view_.size() * sizeof(Vertex) + w_view_.size() * sizeof(float);
  }

  // ---- mapped vs owned storage ----

  /// True when the CSR arrays view a file mapping (map_cgr) rather than
  /// arrays the graph took over at construction.
  bool is_mapped() const noexcept { return mapped_; }

  /// Bytes of the arrays this graph's storage holds in RAM: the owned CSR
  /// arrays plus attach_weights' array. A mapped graph contributes ~0
  /// here (its arrays are kernel-backed file pages) unless weights were
  /// attached later. Copies share the arrays and report the same value.
  std::size_t resident_bytes() const noexcept;

  /// Bytes of CSR arrays viewed through the file mapping (0 when owned).
  std::size_t mapped_bytes() const noexcept {
    return memory_bytes() - resident_bytes();
  }

  // ---- edge weights (optional; empty when unweighted) ----

  /// True when a CSR-aligned weight array is attached (8m bytes; an edgeless
  /// graph is never weighted).
  bool is_weighted() const noexcept { return !w_view_.empty(); }

  /// CSR-aligned weights: weights()[offset(v)+i] is the weight of the edge
  /// {v, neighbor(v,i)}. Empty for unweighted graphs.
  std::span<const float> weights() const noexcept { return w_view_; }

  /// Weight of v's i-th edge (0 <= i < degree(v)); requires is_weighted().
  float weight(Vertex v, std::size_t i) const noexcept {
    return w_view_[offset(v) + i];
  }

  /// Attaches a CSR-aligned weight array (size 2m, every entry positive
  /// and finite; throws std::invalid_argument otherwise, naming the first
  /// bad slot). Part of construction — IO readers and the weight
  /// generators call this once before the graph is shared. The array
  /// lives in a fresh alias cell, so copies made before the call keep
  /// their own weights (or none).
  void attach_weights(std::vector<float> weights);

  /// Per-vertex Vose alias tables over weights(), built lazily on first
  /// call (O(m), single-threaded) and cached — thread-safe, and copies of
  /// the Graph share the cache. Requires is_weighted() (throws
  /// std::logic_error otherwise).
  const GraphAliasTables& alias_tables() const;

  /// Copy without the weights and the alias cell, sharing the CSR arrays:
  /// feeds unweighted baselines from weighted instances. Writing the
  /// stripped copy as .cgr is byte-identical to a never-weighted build of
  /// the same graph (same name).
  Graph strip_weights() const;

 private:
  template <typename Offset>
  void adopt(std::vector<Offset> offsets, std::vector<Vertex> adjacency,
             std::optional<DegreeRange> degrees);
  template <typename Offset>
  void view(std::span<const Offset> offsets, std::span<const Vertex> adjacency,
            std::span<const float> weights,
            std::shared_ptr<const void> backing,
            std::optional<DegreeRange> degrees);

  // The arrays every accessor reads (see offsets32()/offsets64()).
  std::span<const std::uint32_t> off32_view_;
  std::span<const std::uint64_t> off64_view_;
  std::span<const Vertex> adj_view_;
  /// CSR-aligned edge weights; empty (zero overhead) when unweighted.
  std::span<const float> w_view_;
  /// Holds the memory behind the offsets and adjacency views (and the
  /// weights view when mapped): the owned arrays or the file image.
  /// Shared by copies, never written.
  std::shared_ptr<const void> backing_;
  /// attach_weights' array and the lazily-built alias tables over the
  /// weights, in one heap cell so the std::once_flag survives Graph's
  /// value semantics: copies share the cell (same immutable weights ->
  /// same tables), and attach_weights installs a fresh one. Null while
  /// unweighted.
  std::shared_ptr<struct GraphAliasCell> alias_cell_;
  std::string name_;
  std::size_t num_vertices_ = 0;
  std::size_t min_degree_ = 0;
  std::size_t max_degree_ = 0;
  int regularity_ = -1;
  bool wide_ = false;
  bool mapped_ = false;
};

inline Vertex GraphAliasTables::draw(const Graph& g, Vertex v,
                                     Rng& rng) const noexcept {
  const std::size_t begin = g.offset(v);
  const auto degree = static_cast<std::uint32_t>(g.offset(v + 1) - begin);
  return g.adjacency()[begin + draw_index(begin, degree, rng)];
}

}  // namespace cobra

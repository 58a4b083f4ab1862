// SPDX-License-Identifier: MIT
//
// Out-of-core graph generation: stream a family's edges straight into the
// sharded .cgr v3 container without ever materializing the edge list or
// the CSR in memory.
//
// The substrate's generators are already *chunked*: they emit edges for
// deterministic index subranges of a generation space through pure
// callbacks (GraphBuilder::add_edges_chunked), with per-chunk RNG streams
// where randomness is involved. EdgeStream packages exactly that contract
// as a value, so one description drives both paths:
//
//   - in-core:  the generators in generators.hpp feed the stream's emit
//     into GraphBuilder (same chunk boundaries, same RNG draws), then
//     assemble the full CSR in RAM;
//   - out-of-core: stream_to_cgr() scatters the same emitted edges into
//     per-shard spill files on disk (Phase A, parallel over chunks), then
//     assembles one shard's CSR slice at a time and appends it through
//     CgrShardWriter (Phase B, bounded by the shard working set).
//
// Because the final CSR is canonical (per-vertex sorted neighbour lists —
// a pure function of the edge multiset) and both paths sample the same
// multiset, `stream_to_cgr(family_stream(...), path, {.shards = S})`
// produces a file byte-identical to
// `write_cgr(family(...), path, {.shards = S})` — whatever the thread
// count on either side. Tests pin this across families, seeds, and
// thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weights.hpp"
#include "rand/rng.hpp"

namespace cobra::gen {

/// A graph family as a deterministic chunked edge emitter. `emit` must be
/// a pure function of (begin, end) — safe to call concurrently and in any
/// order — and every undirected edge must be emitted by exactly one chunk
/// of the [0, count) index space. `chunk_items` fixes the chunk size
/// (a function of the family's parameters only, never of the thread
/// count); 0 means the default vertex-range chunking.
struct EdgeStream {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t count = 0;
  std::uint64_t chunk_items = 0;
  std::uint64_t edges_hint = 0;  ///< expected edge count (sizing only)
  std::function<void(std::uint64_t, std::uint64_t,
                     std::vector<std::pair<Vertex, Vertex>>&)>
      emit;
};

/// Stream factories for the families with a chunk-pure emitter. Each
/// consumes the caller's RNG exactly like its in-core counterpart (the
/// in-core generators are implemented *on top of* these streams), so a
/// factory call and an in-core call with equal-state RNGs sample the same
/// edge multiset.
EdgeStream erdos_renyi_stream(std::size_t n, double p, Rng& rng);
EdgeStream grid_stream(const std::vector<std::size_t>& dims, bool periodic);
EdgeStream torus_stream(const std::vector<std::size_t>& dims);
EdgeStream hypercube_stream(std::size_t d);

/// The in-core path: feeds `stream`'s emitter through GraphBuilder with
/// the stream's own chunking — the windows stream_to_cgr walks — and
/// assembles the CSR in RAM.
Graph build_stream(const EdgeStream& stream);

struct StreamToCgrOptions {
  /// Approximate peak-RSS target for the whole generation, in bytes. The
  /// shard count is derived so one shard's assembly working set (~16 bytes
  /// per endpoint, estimated from edges_hint) plus the scatter buffers fit
  /// comfortably inside it. This bounds the *algorithm's* allocations; the
  /// process baseline (binary, allocator slack) rides on top.
  std::uint64_t mem_budget = std::uint64_t{256} << 20;
  /// Explicit shard count (>= 1) overriding the budget derivation — the
  /// effective count is recomputed from span = ceil(n / shards) exactly
  /// like CgrWriteOptions, so equal `shards` here and there yields equal
  /// layouts (the byte-identity contract).
  std::uint64_t shards = 0;
  /// Scatter threads; 0 defers to GraphBuilder::default_threads() (and
  /// through it hardware_concurrency). Output bytes never depend on this.
  std::size_t threads = 0;
  /// Directory for the per-shard spill files; "" puts them next to the
  /// output file. Must exist.
  std::string tmp_dir;
  /// When set, synthesize edge weights of this kind (same per-edge stream
  /// as generate_weights — byte-identical to weighting the in-core graph).
  std::optional<WeightKind> weights;
  std::uint64_t weight_seed = 0;
};

struct StreamToCgrStats {
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
  std::uint64_t shards = 0;
  std::uint64_t shard_span = 0;
  std::uint64_t spill_bytes = 0;       ///< total spill traffic written
  std::uint64_t peak_shard_bytes = 0;  ///< largest shard working set
};

/// Generates `stream` into a sharded .cgr v3 file at `path` with bounded
/// memory (see StreamToCgrOptions::mem_budget). Throws
/// std::invalid_argument on n == 0 (v3 cannot express it), invalid edges
/// (out of range, self-loop, duplicate), or IO failure; spill files are
/// cleaned up on both success and failure.
StreamToCgrStats stream_to_cgr(const EdgeStream& stream,
                               const std::string& path,
                               const StreamToCgrOptions& options = {});

}  // namespace cobra::gen

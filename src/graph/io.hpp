// SPDX-License-Identifier: MIT
//
// Graph serialization: a plain edge-list text format (round-trippable) and
// Graphviz DOT export for visual inspection of small instances.
//
// Edge-list format:
//   # comment lines allowed ('%' too, and '#' starts a comment anywhere)
//   n <num_vertices>
//   <u> <v> [weight]   (one undirected edge per line, 0-based ids; the
//                       optional weight column, when present, must be
//                       positive and finite, must appear on every edge
//                       line, and becomes the Graph's edge weights —
//                       see Graph::weights())
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace cobra {

/// Writes the edge-list format described above.
void write_edge_list(const Graph& g, std::ostream& os);

/// Tolerances for real-world edge lists (SNAP dumps, simulator exports).
struct EdgeListOptions {
  /// Require the "n <count>" header. When false a header is still honoured
  /// if present; otherwise n is inferred as max vertex id + 1.
  bool require_header = true;
  /// Silently drop duplicate edges (files often list both directions).
  /// When false, duplicates throw at build time. For weighted files the
  /// first occurrence's weight wins (later duplicates — including the
  /// reverse orientation — are dropped wholesale, weight and all).
  bool dedup = false;
};

/// Parses the edge-list format; throws std::invalid_argument on malformed
/// input, always citing the offending line number (missing header,
/// out-of-range ids, self-loops, junk columns, duplicates unless dedup,
/// non-positive/non-finite weights, and weight columns present on only
/// some edge lines). A file with a weight column yields a weighted Graph.
Graph read_edge_list(std::istream& is, std::string name = "from_edge_list",
                     const EdgeListOptions& options = {});

/// Graphviz DOT (undirected) for small-graph visualisation.
void write_dot(const Graph& g, std::ostream& os);

// ---- binary CSR format (.cgr) ----
//
// Versioned binary container for large instances: a campaign generates a
// graph once, writes it as .cgr, and every later run loads the CSR arrays
// with a few bulk copies instead of re-parsing (or regenerating) millions
// of edges. Layout (little-endian, all sections 8-byte aligned):
//
//   0x00  8 bytes   magic "COBRACGR"
//   0x08  u32       version (1 = unweighted, 2 adds the weight section,
//                            3 adds the shard table)
//   0x0c  u32       flags (bit 0: offsets stored as u64, else u32;
//                          bit 1: weight section present — v2/v3 only)
//   0x10  u64       n   (vertex count)
//   0x18  u64       2m  (adjacency length)
//   0x20  u32       name_len, then name bytes, zero-padded to 8 bytes
//   ....  v3 only — shard table:
//           u64 shard_count S (>= 1), u64 shard_span (vertices per shard),
//           S u64 entries: cumulative endpoint count at each shard's end
//           (entry S-1 == 2m)
//   ....  (n+1) offsets (u32 or u64 per flags)
//   ....  2m u32 adjacency entries
//   ....  2m f32 CSR-aligned edge weights (iff flag bit 1; 8m bytes)
//
// Version compatibility: writers emit version 1 for unweighted graphs —
// byte-identical to the pre-weights format, so v1 consumers and byte
// comparisons keep working — version 2 only when a weight array is
// attached, and version 3 only when sharding is requested. The reader
// accepts all three.
//
// Sharding (v3): shard i covers vertices [i*span, min(n, (i+1)*span));
// its offsets slice is offsets[i*span .. shard end], its adjacency slice
// the entries [table[i-1], table[i]), and its weights slice the same
// index range. The arrays stay globally contiguous — the table only
// *indexes* them — so zero-copy mmap loading is identical across
// versions, the out-of-core generator can write the file one shard at a
// time, and the dist fabric can ship any shard as three byte ranges. The
// table must agree with the offsets array (table[i] ==
// offsets[shard i's end vertex]); the reader rejects files where it
// does not.
//
// The offset width flag must match csr_offsets_fit_32bit(2m) — the file
// mirrors the in-memory width-adaptive representation, so a load keeps
// the file's width. map_cgr() mmaps the file when the platform allows
// (streamed reads into one buffer otherwise) and keeps the image as the
// graph's storage (zero copies, page-cache resident); read_cgr() is
// map_cgr() followed by one copy into owned arrays. Either way the full
// CSR invariants (offsets monotone within [0, 2m], sorted in-range
// neighbour lists, positive finite weights) are validated once before a
// Graph is returned, and truncated or corrupt files are rejected with
// std::invalid_argument naming the defect.

struct CgrWriteOptions {
  /// 0 writes the unsharded v1/v2 layout. >= 1 writes the sharded v3
  /// container with span = ceil(n / shards) vertices per shard (the
  /// effective shard count is recomputed from that span, so ragged
  /// divisions can come out with fewer shards than asked). Sharding an
  /// empty graph (n == 0) is rejected.
  std::uint64_t shards = 0;
};

/// Writes `g` to `path` in the .cgr format above. Throws
/// std::invalid_argument on IO failure.
void write_cgr(const Graph& g, const std::string& path);
void write_cgr(const Graph& g, const std::string& path,
               const CgrWriteOptions& options);

/// Loads a .cgr file into owned arrays: map_cgr(), then one copy, so
/// the file is validated exactly as map_cgr validates it. `name`
/// overrides the stored graph name when non-empty. Throws
/// std::invalid_argument on IO failure, bad magic/version, size mismatch
/// (truncation), or violated CSR invariants.
Graph read_cgr(const std::string& path, std::string name = "");

/// Zero-copy load: the returned Graph's offsets, adjacency, and weights
/// are read-only views over a private file mapping that the graph keeps
/// alive (Graph::is_mapped() == true, resident_bytes() ~ 0). Validation
/// is one sequential pass over the mapping, which also warms the page
/// cache. On platforms without mmap this degrades to a buffered read with
/// the buffer as backing (still one allocation, same semantics). Pages
/// are faulted in on access, so cold sweeps pay IO latency mid-run; see
/// the README's out-of-core notes.
Graph map_cgr(const std::string& path, std::string name = "");

/// Parsed .cgr header + shard table (no array loading or validation beyond
/// header sanity and the size check): the cheap way for tools, memory
/// estimators, and the dist fabric to learn a file's shape. For v1/v2
/// files shard_span is 0 and shard_endpoint_end is empty.
struct CgrInfo {
  std::uint32_t version = 0;
  bool wide = false;
  bool weighted = false;
  std::uint64_t n = 0;
  std::uint64_t endpoints = 0;
  std::string name;
  std::uint64_t shard_span = 0;
  std::vector<std::uint64_t> shard_endpoint_end;
  std::uint64_t file_bytes = 0;
};
CgrInfo read_cgr_info(const std::string& path);

/// Streaming writer for the sharded v3 container: the out-of-core
/// generator (graph/stream.hpp) appends one shard at a time, and each
/// shard's offsets/adjacency/weights land at their precomputed positions
/// inside the *global* sections — so the finished file is byte-identical
/// to write_cgr() of the equivalent in-core graph with the same shard
/// span. Per-shard endpoint counts must be known up front (the
/// generator's scatter pass produces them before any assembly).
class CgrShardWriter {
 public:
  struct Plan {
    std::uint64_t n = 0;
    std::uint64_t shard_span = 0;                ///< vertices per shard
    std::vector<std::uint64_t> shard_endpoints;  ///< per-shard 2m slice sizes
    bool weighted = false;
    std::string name;
  };

  /// Opens `path` and writes the header + shard table. Throws
  /// std::invalid_argument on a malformed plan (n == 0, span == 0, count
  /// mismatch, > 2^32 endpoints per 32-bit offsets...) or IO failure.
  CgrShardWriter(const std::string& path, Plan plan);
  ~CgrShardWriter();
  CgrShardWriter(const CgrShardWriter&) = delete;
  CgrShardWriter& operator=(const CgrShardWriter&) = delete;

  /// Appends the next shard (call in order 0..S-1). `local_offsets` holds
  /// the shard's vertex count + 1 entries with local_offsets[0] == 0 and
  /// back() == the shard's planned endpoint count; the writer rebases them
  /// onto the running global endpoint total and narrows to u32 storage
  /// when the whole file fits 32-bit offsets. `weights` must be empty iff
  /// the plan is unweighted.
  void append_shard(std::span<const std::uint64_t> local_offsets,
                    std::span<const Vertex> adjacency,
                    std::span<const float> weights);

  /// Verifies every shard arrived and flushes; throws on IO failure.
  /// Called implicitly by the destructor only if it cannot throw there —
  /// call it explicitly.
  void finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True if `path` exists and starts with the .cgr magic (false on any IO
/// error) — used by the scenario registry's `graph.file` to auto-detect
/// the binary format.
bool is_cgr_file(const std::string& path);

}  // namespace cobra

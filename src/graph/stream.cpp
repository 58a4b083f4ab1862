// SPDX-License-Identifier: MIT
//
// stream_to_cgr: bounded-memory generation of sharded .cgr files.
//
// Phase A (parallel): the stream's [0, count) index space is walked in its
// deterministic chunks; every emitted edge {u, v} becomes two half-edge
// records — (local u, v) appended to u's shard and (local v, u) appended
// to v's shard — buffered per (thread, shard) and flushed to the shard's
// spill file under a per-shard mutex. Nothing global is kept: the live
// footprint is the emit buffer plus the flush buffers, both sized off the
// memory budget. The flush interleaving is scheduling-dependent, but spill
// *content* per shard is an unordered record multiset, which Phase B
// canonicalizes — so output bytes never depend on thread count.
//
// Phase B (serial over shards): load one spill file, count/scatter it into
// the shard's CSR slice (the same two-pass shape as GraphBuilder), sort
// every neighbour list with the builder's canonical sort, optionally
// synthesize weights (pure per-edge function), and append the slice
// through CgrShardWriter. Working set ~16 bytes per shard endpoint, which
// is what the shard-count derivation holds under budget/2.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/stream.hpp"
#include "sim/thread_pool.hpp"

namespace cobra::gen {

namespace {

/// Default chunk size when a stream does not fix one — matches the
/// builder's vertex-range emit chunk so in-core and streamed walks of the
/// same stream see identical (begin, end) windows.
constexpr std::uint64_t kDefaultChunk = std::uint64_t{1} << 15;
/// Spill-file handles stay open for the whole scatter, so the shard count
/// must respect typical fd rlimits.
constexpr std::uint64_t kMaxStreamShards = 512;

/// One half-edge in a spill file: the owner vertex relative to its shard
/// base, plus the global neighbour id.
struct SpillRecord {
  std::uint32_t local;
  Vertex nbr;
};
static_assert(sizeof(SpillRecord) == 8);

[[noreturn]] void bad_stream(const std::string& name, const std::string& what) {
  throw std::invalid_argument("stream '" + name + "': " + what);
}

std::string spill_path(const StreamToCgrOptions& options,
                       const std::string& out_path, std::uint64_t shard) {
  std::string base = out_path;
  if (!options.tmp_dir.empty()) {
    const std::size_t slash = base.find_last_of('/');
    if (slash != std::string::npos) base = base.substr(slash + 1);
    base = options.tmp_dir + "/" + base;
  }
  return base + ".spill" + std::to_string(shard) + ".tmp";
}

/// Owns the spill files so every exit path (including thrown validation
/// errors) removes them.
class SpillSet {
 public:
  SpillSet(std::uint64_t shards, const StreamToCgrOptions& options,
           const std::string& out_path) {
    paths_.reserve(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      paths_.push_back(spill_path(options, out_path, s));
    }
  }
  ~SpillSet() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  const std::string& path(std::uint64_t shard) const { return paths_[shard]; }

 private:
  std::vector<std::string> paths_;
};

}  // namespace

Graph build_stream(const EdgeStream& stream) {
  GraphBuilder builder(stream.n);
  builder.reserve(stream.edges_hint);
  builder.add_edges_chunked(
      stream.count,
      [&stream](std::size_t begin, std::size_t end,
                std::vector<std::pair<Vertex, Vertex>>& out) {
        stream.emit(begin, end, out);
      },
      stream.chunk_items);
  return builder.build(stream.name);
}

StreamToCgrStats stream_to_cgr(const EdgeStream& stream,
                               const std::string& path,
                               const StreamToCgrOptions& options) {
  const std::uint64_t n = stream.n;
  if (n == 0) bad_stream(stream.name, "v3 containers require n >= 1");
  if (n > std::numeric_limits<Vertex>::max()) {
    bad_stream(stream.name, "vertex count exceeds 32-bit ids");
  }
  if (!stream.emit && stream.count > 0) {
    bad_stream(stream.name, "emit callback missing");
  }
  const std::uint64_t budget =
      std::max<std::uint64_t>(options.mem_budget, std::uint64_t{4} << 20);

  // Shard count: explicit request wins (recomputed from its span, the
  // byte-identity contract with CgrWriteOptions); otherwise derive from
  // the budget so Phase B's ~16 B/endpoint working set stays under half of
  // it, with the offsets slice bounded too.
  std::uint64_t shards;
  if (options.shards > 0) {
    shards = options.shards;
  } else {
    const std::uint64_t endpoints_hint =
        std::max<std::uint64_t>(2 * stream.edges_hint, n);
    // Round up: a fractional shard means the working set would exceed its
    // slice of the budget, so err toward one shard more.
    shards = std::max<std::uint64_t>(
        {std::uint64_t{1}, (32 * endpoints_hint + budget - 1) / budget,
         (16 * n + budget - 1) / budget});
    shards = std::min(shards, kMaxStreamShards);
  }
  const std::uint64_t span = (n + shards - 1) / shards;
  shards = (n + span - 1) / span;

  const std::uint64_t chunk_items =
      stream.chunk_items > 0 ? stream.chunk_items : kDefaultChunk;
  const std::uint64_t chunks =
      stream.count == 0 ? 0 : (stream.count + chunk_items - 1) / chunk_items;

  // ---- Phase A: scatter half-edges into per-shard spill files ----
  SpillSet spills(shards, options, path);
  std::vector<std::ofstream> spill_out(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    spill_out[s].open(spills.path(s), std::ios::binary | std::ios::trunc);
    if (!spill_out[s]) {
      bad_stream(stream.name,
                 "cannot open spill file '" + spills.path(s) + "'");
    }
  }
  std::vector<std::mutex> spill_mutex(shards);
  std::vector<std::uint64_t> shard_endpoints(shards, 0);  // guarded per shard

  const std::size_t threads =
      options.threads != 0 ? options.threads : GraphBuilder::default_threads();

  // Flush threshold per (thread, shard) buffer: aim the total buffer pool
  // at ~budget/4, clamped to keep flushes chunky but bounded.
  const std::uint64_t flush_records = std::clamp<std::uint64_t>(
      budget / (4 * std::max<std::uint64_t>(1, threads) * shards *
                sizeof(SpillRecord)),
      512, 16384);

  std::atomic<bool> failed{false};
  std::string failure;
  std::mutex failure_mutex;
  const auto fail = [&](const std::string& what) {
    if (!failed.exchange(true)) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      failure = what;
    }
  };

  struct ThreadScratch {
    std::vector<std::pair<Vertex, Vertex>> edges;
    std::vector<std::vector<SpillRecord>> buffers;
  };
  const auto flush_shard = [&](std::uint64_t s,
                               std::vector<SpillRecord>& buffer) {
    const std::lock_guard<std::mutex> lock(spill_mutex[s]);
    spill_out[s].write(reinterpret_cast<const char*>(buffer.data()),
                       static_cast<std::streamsize>(buffer.size() *
                                                    sizeof(SpillRecord)));
    if (!spill_out[s]) fail("spill write failed for shard " +
                            std::to_string(s));
    shard_endpoints[s] += buffer.size();
    buffer.clear();
  };
  const auto scatter_chunk = [&](std::uint64_t c, ThreadScratch& scratch) {
    if (failed.load(std::memory_order_relaxed)) return;
    const std::uint64_t begin = c * chunk_items;
    const std::uint64_t end = std::min(stream.count, begin + chunk_items);
    scratch.edges.clear();
    stream.emit(begin, end, scratch.edges);
    for (const auto& [u, v] : scratch.edges) {
      if (u >= n || v >= n || u == v) {
        fail("invalid edge {" + std::to_string(u) + "," + std::to_string(v) +
             "}");
        return;
      }
      const std::uint64_t su = u / span;
      const std::uint64_t sv = v / span;
      scratch.buffers[su].push_back(
          {static_cast<std::uint32_t>(u - su * span), v});
      scratch.buffers[sv].push_back(
          {static_cast<std::uint32_t>(v - sv * span), u});
      if (scratch.buffers[su].size() >= flush_records) {
        flush_shard(su, scratch.buffers[su]);
      }
      if (scratch.buffers[sv].size() >= flush_records) {
        flush_shard(sv, scratch.buffers[sv]);
      }
    }
  };
  const auto drain = [&](ThreadScratch& scratch) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      if (!scratch.buffers[s].empty()) flush_shard(s, scratch.buffers[s]);
    }
  };

  if (chunks > 0) {
    if (threads > 1 && chunks > 1) {
      ThreadPool pool(threads - 1);
      std::mutex scratch_mutex;
      std::vector<std::unique_ptr<ThreadScratch>> scratches;
      pool.parallel_for_stateful(chunks, [&] {
        auto owned = std::make_unique<ThreadScratch>();
        owned->buffers.resize(shards);
        ThreadScratch* scratch = owned.get();
        {
          const std::lock_guard<std::mutex> lock(scratch_mutex);
          scratches.push_back(std::move(owned));
        }
        return [&, scratch](std::size_t c) { scatter_chunk(c, *scratch); };
      });
      for (auto& scratch : scratches) drain(*scratch);
    } else {
      ThreadScratch scratch;
      scratch.buffers.resize(shards);
      for (std::uint64_t c = 0; c < chunks; ++c) scatter_chunk(c, scratch);
      drain(scratch);
    }
  }
  if (failed.load()) bad_stream(stream.name, failure);
  std::uint64_t total_endpoints = 0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    spill_out[s].flush();
    if (!spill_out[s]) {
      bad_stream(stream.name, "spill flush failed for shard " +
                                  std::to_string(s));
    }
    spill_out[s].close();
    total_endpoints += shard_endpoints[s];
  }

  // ---- Phase B: per-shard CSR assembly into the v3 container ----
  CgrShardWriter::Plan plan;
  plan.n = n;
  plan.shard_span = span;
  plan.shard_endpoints = shard_endpoints;
  plan.weighted = options.weights.has_value();
  plan.name = stream.name;
  CgrShardWriter writer(path, std::move(plan));

  StreamToCgrStats stats;
  stats.n = n;
  stats.edges = total_endpoints / 2;
  stats.shards = shards;
  stats.shard_span = span;
  stats.spill_bytes = total_endpoints * sizeof(SpillRecord);

  std::vector<SpillRecord> records;
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> adjacency;
  std::vector<std::uint64_t> cursor;
  std::vector<float> weights;
  for (std::uint64_t s = 0; s < shards; ++s) {
    const std::uint64_t v0 = s * span;
    const std::uint64_t v1 = std::min(n, v0 + span);
    const std::uint64_t local_n = v1 - v0;
    const std::uint64_t cnt = shard_endpoints[s];
    records.resize(cnt);
    {
      std::ifstream in(spills.path(s), std::ios::binary);
      if (cnt > 0 &&
          (!in || !in.read(reinterpret_cast<char*>(records.data()),
                           static_cast<std::streamsize>(
                               cnt * sizeof(SpillRecord))))) {
        bad_stream(stream.name, "cannot read back spill file '" +
                                    spills.path(s) + "'");
      }
    }
    // Two-pass count/scatter, then the builder's canonical per-vertex
    // sort — exactly the multiset-to-CSR function the in-core assembly
    // computes for this vertex range.
    offsets.assign(local_n + 1, 0);
    for (const SpillRecord& r : records) {
      if (r.local >= local_n) {
        bad_stream(stream.name, "corrupt spill record in shard " +
                                    std::to_string(s));
      }
      ++offsets[r.local + 1];
    }
    for (std::uint64_t v = 0; v < local_n; ++v) offsets[v + 1] += offsets[v];
    adjacency.resize(cnt);
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (const SpillRecord& r : records) {
      adjacency[cursor[r.local]++] = r.nbr;
    }
    for (std::uint64_t v = 0; v < local_n; ++v) {
      if (detail::sort_neighbour_list(adjacency.data() + offsets[v],
                                      adjacency.data() + offsets[v + 1])) {
        bad_stream(stream.name,
                   "duplicate edge at vertex " + std::to_string(v0 + v));
      }
    }
    if (options.weights) {
      weights.resize(cnt);
      for (std::uint64_t v = 0; v < local_n; ++v) {
        const auto owner = static_cast<Vertex>(v0 + v);
        for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          weights[i] = edge_weight(*options.weights, options.weight_seed,
                                   owner, adjacency[i]);
        }
      }
    }
    writer.append_shard(
        offsets, adjacency,
        options.weights ? std::span<const float>(weights)
                        : std::span<const float>{});
    const std::uint64_t shard_bytes =
        cnt * (sizeof(SpillRecord) + sizeof(Vertex) +
               (options.weights ? sizeof(float) : 0)) +
        (local_n + 1) * 2 * sizeof(std::uint64_t);
    stats.peak_shard_bytes = std::max(stats.peak_shard_bytes, shard_bytes);
  }
  writer.finish();
  return stats;
}

}  // namespace cobra::gen

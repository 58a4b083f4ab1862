// SPDX-License-Identifier: MIT
//
// micro_graphgen — graph substrate benchmark emitting BENCH_graphgen.json.
//
// Measures, per family and size, the parallel substrate (chunked
// generation + bucketized two-pass count/scatter assembly), plus the
// assembly stage in isolation on the same edge multiset in shuffled
// order. Also reports bytes/vertex (width-adaptive offsets) and
// cross-checks that 1-thread and T-thread assemblies produce identical
// graphs. random_regular has one
// sampler and no builder stage, so its rows time that sampler alone at
// r in {3, 4, 6, 8} (min and median over repeats of the same seed, which
// must rebuild the identical graph), plus the connectivity check that
// connected_random_regular adds. The JSON header records the host: core
// count, CPU model and build provenance.
//
//   ./micro_graphgen [--scale small|medium|large] [--threads T] [--seed S]
//                    [--out BENCH_graphgen.json]
//
// --scale large runs n=2^20 and n=2^22; small keeps CI under seconds.
// --threads defaults to max(4, hardware_concurrency).
// Exit status: 1 if any determinism cross-check fails.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_host.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stream.hpp"
#include "graph/weights.hpp"
#include "rand/rng.hpp"
#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cobra;

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size() ||
        !std::equal(na.begin(), na.end(), nb.begin())) {
      return false;
    }
  }
  return true;
}

/// The graph's edges, deterministically shuffled so the assembly rows
/// see generator-like rather than presorted input.
std::vector<std::pair<Vertex, Vertex>> extract_edges(const Graph& g,
                                                     std::uint64_t seed) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  Rng rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  return edges;
}

struct Row {
  std::string family;
  std::size_t n = 0;
  std::size_t edges = 0;
  double gen_parallel_ms = 0;    ///< generator, parallel assembly
  double asm_parallel_ms = 0;    ///< build on the shuffled edge multiset
  double bytes_per_vertex_after = 0;   ///< width-adaptive offsets
  bool deterministic = false;    ///< 1-thread vs T-thread graphs identical
};

double timed_ms(const std::function<void()>& fn) {
  Stopwatch watch;
  fn();
  return watch.seconds() * 1e3;
}

/// Rebuilds per random_regular row; min and median are taken over them.
constexpr int kRegularRepeats = 3;

/// random_regular row: the sampler alone at one (n, r), min and median
/// over kRegularRepeats rebuilds from the same seed.
struct RegularRow {
  std::size_t n = 0;
  std::size_t r = 0;
  std::size_t edges = 0;
  double build_ms_min = 0;
  double build_ms_median = 0;
  double connected_ms = 0;  ///< is_connected on the built graph
  bool connected = false;
  bool deterministic = false;  ///< every repeat built the identical graph
};

RegularRow measure_regular(std::size_t n, std::size_t r,
                           std::uint64_t seed) {
  RegularRow row;
  row.n = n;
  row.r = r;
  row.deterministic = true;
  std::vector<double> times;
  Graph first;
  for (int i = 0; i < kRegularRepeats; ++i) {
    Rng rng(seed);
    Graph g;
    times.push_back(timed_ms([&] { g = gen::random_regular(n, r, rng); }));
    if (i == 0) {
      first = std::move(g);
    } else {
      row.deterministic &= same_graph(first, g);
    }
  }
  std::sort(times.begin(), times.end());
  row.build_ms_min = times.front();
  row.build_ms_median = times[times.size() / 2];
  row.edges = first.num_edges();
  row.connected_ms = timed_ms([&] { row.connected = is_connected(first); });
  return row;
}

/// Weighted-substrate row: synthetic weight generation, alias-table
/// construction, and the per-draw cost of weighted vs uniform neighbour
/// picks on the same instance.
struct WeightedRow {
  std::size_t n = 0;
  std::size_t edges = 0;
  double weights_ms = 0;     ///< generate_weights(exp) wall time
  double alias_ms = 0;       ///< lazy alias-table build wall time
  double uniform_draw_ns = 0;  ///< per uniform neighbour draw
  double weighted_draw_ns = 0; ///< per alias-table draw
};

WeightedRow measure_weighted(std::size_t n, std::uint64_t seed) {
  WeightedRow row;
  row.n = n;
  Rng rng(seed);
  Graph g = gen::random_regular(n, 8, rng);
  row.edges = g.num_edges();
  row.weights_ms = timed_ms(
      [&] { gen::generate_weights(g, gen::WeightKind::kExp, seed); });
  const GraphAliasTables* tables = nullptr;
  row.alias_ms = timed_ms([&] { tables = &g.alias_tables(); });
  const std::size_t draws = 1 << 22;
  Rng draw_rng(seed ^ 0x5bd1);
  std::uint64_t sink = 0;
  const double uniform_ms = timed_ms([&] {
    Vertex v = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      v = g.neighbor(v, draw_rng.next_below32(
                            static_cast<std::uint32_t>(g.degree(v))));
      sink += v;
    }
  });
  const double weighted_ms = timed_ms([&] {
    Vertex v = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      v = tables->draw(g, v, draw_rng);
      sink += v;
    }
  });
  if (sink == 42) std::printf("");  // defeat dead-code elimination
  row.uniform_draw_ns = uniform_ms * 1e6 / static_cast<double>(draws);
  row.weighted_draw_ns = weighted_ms * 1e6 / static_cast<double>(draws);
  return row;
}

/// Out-of-core streaming-assembly row: the same family generated through
/// stream_to_cgr (disk-bounded scatter + per-shard assembly) vs the
/// in-core path writing the identical sharded container, with the byte
/// identity of the two files as the correctness column.
struct StreamRow {
  std::string family;
  std::size_t n = 0;
  std::size_t edges = 0;
  std::uint64_t shards = 0;
  double incore_ms = 0;   ///< generate in RAM + write sharded .cgr
  double stream_ms = 0;   ///< stream_to_cgr, bounded working set
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_shard_bytes = 0;
  bool identical = false;  ///< file bytes equal between the two paths
};

bool same_file_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  return ba == bb;
}

StreamRow measure_stream(std::size_t n, std::uint64_t seed,
                         std::uint64_t budget) {
  StreamRow row;
  row.family = "erdos_renyi";
  row.n = n;
  const std::string incore_path = "bench_stream_incore.cgr";
  const std::string stream_path = "bench_stream_ooc.cgr";
  const double p = 8.0 / static_cast<double>(n);

  gen::StreamToCgrStats stats;
  row.stream_ms = timed_ms([&] {
    Rng rng(seed);
    const gen::EdgeStream stream = gen::erdos_renyi_stream(n, p, rng);
    gen::StreamToCgrOptions options;
    options.mem_budget = budget;
    stats = gen::stream_to_cgr(stream, stream_path, options);
  });
  row.shards = stats.shards;
  row.spill_bytes = stats.spill_bytes;
  row.peak_shard_bytes = stats.peak_shard_bytes;

  row.incore_ms = timed_ms([&] {
    Rng rng(seed);
    const Graph g = gen::erdos_renyi(n, p, rng);
    row.edges = g.num_edges();
    CgrWriteOptions options;
    options.shards = (n + stats.shard_span - 1) / stats.shard_span;
    write_cgr(g, incore_path, options);
  });
  row.identical = same_file_bytes(incore_path, stream_path);
  std::remove(incore_path.c_str());
  std::remove(stream_path.c_str());
  return row;
}

/// Times the assembly stage on the multiset at `threads` and fills the
/// memory/determinism columns from the result.
void measure_assembly(Row& row, std::size_t n,
                      const std::vector<std::pair<Vertex, Vertex>>& edges,
                      std::size_t threads) {
  Graph parallel_graph;
  {
    GraphBuilder::set_default_threads(threads);
    GraphBuilder builder(n);
    builder.reserve(edges.size());
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    row.asm_parallel_ms = timed_ms([&] {
      parallel_graph = builder.build(row.family + "/parallel");
    });
    row.bytes_per_vertex_after =
        static_cast<double>(parallel_graph.memory_bytes()) /
        static_cast<double>(n);
  }
  {
    // Thread-count independence: a 1-thread run of the parallel algorithm
    // must produce the identical graph.
    GraphBuilder::set_default_threads(1);
    GraphBuilder builder(n);
    builder.reserve(edges.size());
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    const Graph single = builder.build(row.family + "/single");
    row.deterministic = same_graph(single, parallel_graph);
    GraphBuilder::set_default_threads(threads);
  }
}

void emit_row(std::FILE* f, const Row& row, bool last) {
  std::fprintf(
      f,
      "    {\"family\": \"%s\", \"n\": %zu, \"edges\": %zu, "
      "\"gen_parallel_ms\": %.1f,\n"
      "     \"assembly_parallel_ms\": %.1f, \"bytes_per_vertex_after\": "
      "%.1f, \"deterministic\": %s}%s\n",
      row.family.c_str(), row.n, row.edges, row.gen_parallel_ms,
      row.asm_parallel_ms, row.bytes_per_vertex_after,
      row.deterministic ? "true" : "false", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Scale scale = Scale::from_flags(flags);
  const std::string out_path = flags.get("out", "BENCH_graphgen.json");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  std::size_t threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  if (threads == 0) {
    threads = std::max<std::size_t>(4, std::thread::hardware_concurrency());
  }
  if (flags.help_requested()) {
    std::printf("usage: micro_graphgen [flags]\n\nflags:\n");
    flags.print_help(std::cout);
    return 0;
  }
  flags.warn_unconsumed(std::cerr);

  const std::size_t n_small = scale.pick<std::size_t>(1 << 13, 1 << 18, 1 << 20);
  const std::size_t n_large = scale.pick<std::size_t>(1 << 15, 1 << 20, 1 << 22);

  std::vector<Row> rows;
  for (const std::size_t n : {n_small, n_large}) {
    // erdos_renyi(p = 8/n): restructured sampler (per-chunk streams).
    {
      Row row;
      row.family = "erdos_renyi";
      row.n = n;
      const double p = 8.0 / static_cast<double>(n);
      GraphBuilder::set_default_threads(threads);
      Rng parallel_rng(seed);
      Graph parallel_graph;
      row.gen_parallel_ms =
          timed_ms([&] { parallel_graph = gen::erdos_renyi(n, p, parallel_rng); });
      row.edges = parallel_graph.num_edges();
      const auto edges = extract_edges(parallel_graph, seed ^ 0x79b9);
      parallel_graph = Graph();
      measure_assembly(row, n, edges, threads);
      rows.push_back(std::move(row));
    }
    // torus (2D, near-square).
    {
      Row row;
      row.family = "torus2d";
      row.n = n;
      std::size_t side = 1;
      while (side * side < n) side <<= 1;
      const std::vector<std::size_t> dims{side, n / side};
      GraphBuilder::set_default_threads(threads);
      Graph parallel_graph;
      row.gen_parallel_ms =
          timed_ms([&] { parallel_graph = gen::torus(dims); });
      row.edges = parallel_graph.num_edges();
      const auto edges = extract_edges(parallel_graph, seed ^ 0x85eb);
      parallel_graph = Graph();
      measure_assembly(row, n, edges, threads);
      rows.push_back(std::move(row));
    }
  }

  std::vector<RegularRow> regular_rows;
  for (const std::size_t n : {n_small, n_large}) {
    for (const std::size_t r : {3, 4, 6, 8}) {
      regular_rows.push_back(measure_regular(n, r, seed));
    }
  }

  // Weighted substrate: weight synthesis + alias build + draw costs on
  // the random_regular instances.
  std::vector<WeightedRow> weighted_rows;
  for (const std::size_t n : {n_small, n_large}) {
    weighted_rows.push_back(measure_weighted(n, seed));
  }

  // Out-of-core streaming assembly vs in-core on the sharded container.
  // The tight budget forces real sharding even at the small size, so the
  // rows exercise the spill/assemble path rather than degenerating to one
  // shard.
  std::vector<StreamRow> stream_rows;
  for (const std::size_t n : {n_small, n_large}) {
    stream_rows.push_back(measure_stream(n, seed, std::uint64_t{4} << 20));
  }

  bool all_deterministic = true;
  for (const Row& row : rows) all_deterministic &= row.deterministic;
  for (const RegularRow& row : regular_rows) {
    all_deterministic &= row.deterministic;
  }
  for (const StreamRow& row : stream_rows) all_deterministic &= row.identical;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"graphgen\",\n  \"host\": %s,\n"
               "  \"scale\": \"%s\",\n  \"threads\": %zu,\n"
               "  \"seed\": %llu,\n  \"repeats\": %d,\n  \"rows\": [\n",
               bench::host_json().c_str(), scale.name().c_str(), threads,
               static_cast<unsigned long long>(seed), kRegularRepeats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    emit_row(f, rows[i], i + 1 == rows.size());
  }
  std::fprintf(f, "  ],\n  \"regular_rows\": [\n");
  for (std::size_t i = 0; i < regular_rows.size(); ++i) {
    const RegularRow& row = regular_rows[i];
    std::fprintf(f,
                 "    {\"family\": \"random_regular\", \"n\": %zu, "
                 "\"r\": %zu, \"edges\": %zu, \"build_ms_min\": %.1f, "
                 "\"build_ms_median\": %.1f,\n     \"connected_ms\": %.1f, "
                 "\"connected\": %s, \"deterministic\": %s}%s\n",
                 row.n, row.r, row.edges, row.build_ms_min,
                 row.build_ms_median, row.connected_ms,
                 row.connected ? "true" : "false",
                 row.deterministic ? "true" : "false",
                 i + 1 == regular_rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"weighted_rows\": [\n");
  for (std::size_t i = 0; i < weighted_rows.size(); ++i) {
    const WeightedRow& row = weighted_rows[i];
    std::fprintf(f,
                 "    {\"family\": \"random_regular\", \"n\": %zu, "
                 "\"edges\": %zu, \"weights_ms\": %.1f, \"alias_ms\": %.1f,\n"
                 "     \"uniform_draw_ns\": %.1f, \"weighted_draw_ns\": "
                 "%.1f}%s\n",
                 row.n, row.edges, row.weights_ms, row.alias_ms,
                 row.uniform_draw_ns, row.weighted_draw_ns,
                 i + 1 == weighted_rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"stream_rows\": [\n");
  for (std::size_t i = 0; i < stream_rows.size(); ++i) {
    const StreamRow& row = stream_rows[i];
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"n\": %zu, \"edges\": %zu, "
                 "\"shards\": %llu,\n"
                 "     \"incore_ms\": %.1f, \"stream_ms\": %.1f, "
                 "\"spill_bytes\": %llu, \"peak_shard_bytes\": %llu, "
                 "\"identical\": %s}%s\n",
                 row.family.c_str(), row.n, row.edges,
                 static_cast<unsigned long long>(row.shards), row.incore_ms,
                 row.stream_ms,
                 static_cast<unsigned long long>(row.spill_bytes),
                 static_cast<unsigned long long>(row.peak_shard_bytes),
                 row.identical ? "true" : "false",
                 i + 1 == stream_rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"all_deterministic\": %s\n}\n",
               all_deterministic ? "true" : "false");
  std::fclose(f);

  std::printf("%-16s %10s %12s %12s %7s\n", "family", "n", "gen_par_ms",
              "asm_par_ms", "B/v");
  for (const Row& row : rows) {
    std::printf("%-16s %10zu %12.1f %12.1f %7.1f%s\n", row.family.c_str(),
                row.n, row.gen_parallel_ms, row.asm_parallel_ms,
                row.bytes_per_vertex_after,
                row.deterministic ? "" : "  DETERMINISM BROKEN");
  }
  std::printf("%-16s %10s %4s %12s %12s %12s\n", "random_regular", "n", "r",
              "build_min_ms", "build_med_ms", "connected_ms");
  for (const RegularRow& row : regular_rows) {
    std::printf("%-16s %10zu %4zu %12.1f %12.1f %12.1f%s\n", "", row.n, row.r,
                row.build_ms_min, row.build_ms_median, row.connected_ms,
                row.deterministic ? "" : "  DETERMINISM BROKEN");
  }
  std::printf("%-16s %10s %12s %12s %14s %14s\n", "weighted", "n",
              "weights_ms", "alias_ms", "uniform_ns/dr", "weighted_ns/dr");
  for (const WeightedRow& row : weighted_rows) {
    std::printf("%-16s %10zu %12.1f %12.1f %14.1f %14.1f\n", "random_regular",
                row.n, row.weights_ms, row.alias_ms, row.uniform_draw_ns,
                row.weighted_draw_ns);
  }
  std::printf("%-16s %10s %12s %12s %8s %14s\n", "stream", "n", "incore_ms",
              "stream_ms", "shards", "peak_shard_B");
  for (const StreamRow& row : stream_rows) {
    std::printf("%-16s %10zu %12.1f %12.1f %8llu %14llu%s\n",
                row.family.c_str(), row.n, row.incore_ms, row.stream_ms,
                static_cast<unsigned long long>(row.shards),
                static_cast<unsigned long long>(row.peak_shard_bytes),
                row.identical ? "" : "  BYTES DIVERGED");
  }
  std::printf("wrote %s\n", out_path.c_str());
  return all_deterministic ? 0 : 1;
}

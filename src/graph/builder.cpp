// SPDX-License-Identifier: MIT
#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/thread_pool.hpp"

namespace cobra {

namespace {

std::atomic<std::size_t> g_default_threads{0};

/// Assembly goes parallel only past this many queued edges; below it the
/// pool spin-up would dominate the build itself.
constexpr std::size_t kParallelEdgeThreshold = 1 << 15;
/// Fixed work-chunk sizes, independent of thread count — chunk boundaries
/// must not depend on parallelism or the emit order of add_edges_chunked
/// would change with it.
constexpr std::size_t kEdgeChunk = 1 << 16;
constexpr std::size_t kEmitChunk = 1 << 15;

using detail::BuildPool;
using detail::kVertexChunk;

[[noreturn]] void throw_bad_edge(Vertex u, Vertex v, std::size_t n) {
  if (u >= n || v >= n) {
    throw std::invalid_argument(
        "edge endpoint out of range: {" + std::to_string(u) + "," +
        std::to_string(v) + "} with n=" + std::to_string(n));
  }
  throw std::invalid_argument("self-loop rejected at vertex " +
                              std::to_string(u));
}

template <typename Offset>
struct CsrArrays {
  std::vector<Offset> offsets;
  std::vector<Vertex> adjacency;
  std::size_t min_degree = 0;
  std::size_t max_degree = 0;
  bool has_duplicate = false;
};

/// Reusable staging buffers (the PR-1 workspace idiom): the half-edge
/// arrays and the chunk histogram are the build's dominant transient
/// allocations, and faulting in hundreds of fresh zeroed megabytes per
/// instance costs a full memory pass. Leased builds reuse the buffers;
/// a small freelist keeps the arena across builds (campaigns construct
/// many instances of the same scale).
class BuildScratch {
 public:
  /// Buffer for `slot` of at least `bytes`, unspecified contents.
  void* get(std::size_t slot, std::size_t bytes) {
    Buffer& buffer = buffers_[slot];
    if (buffer.cap < bytes) {
      buffer.data = std::make_unique_for_overwrite<unsigned char[]>(bytes);
      buffer.cap = bytes;
    }
    return buffer.data.get();
  }

 private:
  struct Buffer {
    std::unique_ptr<unsigned char[]> data;
    std::size_t cap = 0;
  };
  Buffer buffers_[3];
};

std::mutex g_scratch_mutex;
std::vector<std::unique_ptr<BuildScratch>> g_scratch_free;

class ScratchLease {
 public:
  ScratchLease() {
    std::lock_guard lock(g_scratch_mutex);
    if (!g_scratch_free.empty()) {
      scratch_ = std::move(g_scratch_free.back());
      g_scratch_free.pop_back();
    } else {
      scratch_ = std::make_unique<BuildScratch>();
    }
  }
  ~ScratchLease() {
    std::lock_guard lock(g_scratch_mutex);
    if (g_scratch_free.size() < 2) g_scratch_free.push_back(std::move(scratch_));
  }
  BuildScratch& operator*() const noexcept { return *scratch_; }

 private:
  std::unique_ptr<BuildScratch> scratch_;
};

/// Compare-exchange that loads both values before either store, so GCC
/// emits two cmovs; std::min/std::max through the references compiles to
/// a compare-and-branch.
inline void compare_swap(Vertex& a, Vertex& b) {
  const Vertex x = a;
  const Vertex y = b;
  a = x < y ? x : y;
  b = x < y ? y : x;
}

/// Sorts a list of exactly D (2..8) neighbours with the optimal
/// 19-comparator, depth-6 network for 8 inputs (Knuth, TAOCP 5.3.4), run
/// over locals. The D real entries are padded with ~0, which sorts last,
/// so the first D outputs are the real entries in order. The compiler
/// folds every comparator that meets a sentinel, leaving D = 2..7 with
/// 1, 3, 5, 9, 12 and 16 compare-exchanges, each the optimal count.
/// Returns true if two of the D entries are equal.
template <std::size_t D>
bool sort_network(Vertex* list) {
  Vertex a[8];
  for (std::size_t i = 0; i < 8; ++i) a[i] = i < D ? list[i] : ~Vertex{0};
  compare_swap(a[0], a[2]);
  compare_swap(a[1], a[3]);
  compare_swap(a[4], a[6]);
  compare_swap(a[5], a[7]);
  compare_swap(a[0], a[4]);
  compare_swap(a[1], a[5]);
  compare_swap(a[2], a[6]);
  compare_swap(a[3], a[7]);
  compare_swap(a[0], a[1]);
  compare_swap(a[2], a[3]);
  compare_swap(a[4], a[5]);
  compare_swap(a[6], a[7]);
  compare_swap(a[2], a[4]);
  compare_swap(a[3], a[5]);
  compare_swap(a[1], a[4]);
  compare_swap(a[3], a[6]);
  compare_swap(a[1], a[2]);
  compare_swap(a[3], a[4]);
  compare_swap(a[5], a[6]);
  bool dup = false;
  for (std::size_t i = 0; i + 1 < D; ++i) dup |= a[i] == a[i + 1];
  for (std::size_t i = 0; i < D; ++i) list[i] = a[i];
  return dup;
}

/// Sorts a neighbour list and reports whether it contains a duplicate.
/// Degrees 2..8 (2D and 3D tori and grids, random 8-regular expanders)
/// run a branch-free sorting network, as insertion sort's data-dependent
/// branches mispredict on random neighbours. Degrees 9..32 use insertion
/// sort, where the duplicate check rides on the insertion comparisons
/// instead of a separate adjacent_find pass; larger lists fall through to
/// std::sort + adjacent_find.
inline bool sort_neighbours(Vertex* first, Vertex* last) {
  switch (last - first) {
    case 0:
    case 1:
      return false;
    case 2:
      return sort_network<2>(first);
    case 3:
      return sort_network<3>(first);
    case 4:
      return sort_network<4>(first);
    case 5:
      return sort_network<5>(first);
    case 6:
      return sort_network<6>(first);
    case 7:
      return sort_network<7>(first);
    case 8:
      return sort_network<8>(first);
    default:
      break;
  }
  if (last - first > 32) {
    std::sort(first, last);
    return std::adjacent_find(first, last) != last;
  }
  bool dup = false;
  for (Vertex* it = first + 1; it < last; ++it) {
    const Vertex x = *it;
    Vertex* j = it;
    while (j > first && *(j - 1) > x) {
      *j = *(j - 1);
      --j;
    }
    *j = x;
    dup |= (j > first && *(j - 1) == x);
  }
  return dup;
}

/// The two-pass count/scatter assembly, bucketized for cache locality and
/// determinism:
///
///   1. Edges are read in fixed chunks; each chunk histograms its
///      endpoints into K contiguous vertex buckets (K chosen so one
///      bucket's adjacency span is ~L2-sized).
///   2. An exclusive prefix over the (chunk x bucket) histogram matrix
///      assigns every chunk a private slot range in every bucket, so the
///      half-edge scatter needs no atomics and lands each bucket's
///      half-edges in chunk order — the exact sequence a serial run
///      produces, whatever the thread count. Owners are stored
///      bucket-local (u16 when a bucket's vertex span fits, the common
///      case) next to a u32 neighbour array: 6 bytes/half-edge of stream
///      traffic instead of 16 for a zero-initialized pair vector.
///   3. Per bucket (the parallel unit), degrees are counted and endpoints
///      scattered within the bucket's vertex range: the cursor slice and
///      destination span are cache-resident, which is where the speedup
///      over a naive full-range scatter comes from. The neighbour sort
///      (which canonicalizes the CSR and surfaces duplicates as adjacent
///      equal entries) is fused into the same bucket visit while the span
///      is still warm.
///
/// The result is a pure function of the queued edge multiset: no pass
/// depends on thread count or scheduling.
template <typename Offset, typename LocalOwner>
CsrArrays<Offset> scatter_csr(std::size_t n,
                              const std::vector<std::pair<Vertex, Vertex>>& edges,
                              BuildPool& pool, std::size_t buckets,
                              unsigned bucket_shift) {
  // Power-of-two bucket spans: the per-endpoint bucket-of() and
  // local-owner computations in the hot passes are a shift and a mask.
  const std::size_t verts_per_bucket = std::size_t{1} << bucket_shift;
  const Vertex local_mask = static_cast<Vertex>(verts_per_bucket - 1);
  CsrArrays<Offset> out;
  const std::size_t m = edges.size();
  out.offsets.resize(n + 1, 0);
  out.adjacency.resize(2 * m);
  if (m == 0) return out;

  const std::size_t chunks =
      std::min<std::size_t>(1024, (m + kEdgeChunk - 1) / kEdgeChunk);
  const std::size_t chunk_size = (m + chunks - 1) / chunks;

  ScratchLease scratch;

  // Pass 1: per-chunk bucket histograms.
  auto* hist =
      static_cast<std::uint64_t*>((*scratch).get(0, chunks * buckets * 8));
  std::fill_n(hist, chunks * buckets, 0);
  pool.run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(m, begin + chunk_size);
    std::uint64_t* row = hist + c * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      const auto [u, v] = edges[i];
      ++row[u >> bucket_shift];
      ++row[v >> bucket_shift];
    }
  });

  // Exclusive prefix over (bucket, then chunk): hist[c][k] becomes chunk
  // c's private slot cursor inside bucket k's contiguous half-edge region.
  std::vector<std::uint64_t> bucket_begin(buckets + 1, 0);
  {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < buckets; ++k) {
      bucket_begin[k] = acc;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t count = hist[c * buckets + k];
        hist[c * buckets + k] = acc;
        acc += count;
      }
    }
    bucket_begin[buckets] = acc;  // == 2m
  }

  // Pass 2: scatter half-edges into their buckets as parallel
  // (bucket-local owner, neighbour) arrays. Uninitialized storage: every
  // slot is written exactly once, and zero-filling would cost an extra
  // memory pass.
  auto* owners = static_cast<LocalOwner*>(
      (*scratch).get(1, 2 * m * sizeof(LocalOwner)));
  auto* nbrs = static_cast<Vertex*>((*scratch).get(2, 2 * m * sizeof(Vertex)));
  pool.run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(m, begin + chunk_size);
    std::uint64_t* cursor = hist + c * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      const auto [u, v] = edges[i];
      const std::uint64_t su = cursor[u >> bucket_shift]++;
      owners[su] = static_cast<LocalOwner>(u & local_mask);
      nbrs[su] = v;
      const std::uint64_t sv = cursor[v >> bucket_shift]++;
      owners[sv] = static_cast<LocalOwner>(v & local_mask);
      nbrs[sv] = u;
    }
  });

  // Pass 3a: per bucket, count degrees into the shared offsets array —
  // safe because bucket vertex ranges are disjoint.
  Offset* offsets = out.offsets.data();
  pool.run_chunks(buckets, [&](std::size_t k) {
    Offset* base = offsets + k * verts_per_bucket;
    for (std::uint64_t i = bucket_begin[k]; i < bucket_begin[k + 1]; ++i) {
      ++base[owners[i]];
    }
  });
  // Serial inclusive prefix: offsets[v] = END of v's block (offsets[n]=2m).
  // Degree extrema ride along so the Graph constructor can skip its O(n)
  // rescan.
  {
    Offset acc = 0;
    Offset min_deg = offsets[0];
    Offset max_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const Offset deg = offsets[v];
      min_deg = std::min(min_deg, deg);
      max_deg = std::max(max_deg, deg);
      acc += deg;
      offsets[v] = acc;
    }
    offsets[n] = acc;
    out.min_degree = min_deg;
    out.max_degree = max_deg;
  }

  // Pass 3b: per bucket, scatter + sort fused while the bucket's spans are
  // cache-resident. The backward fill via --base[owner] turns each END
  // into the block START as it completes — the final CSR offsets with no
  // separate cursor array. Within a bucket the half-edges sit in
  // deterministic chunk order, so even the pre-sort adjacency is a pure
  // function of the edge multiset. The last block's end is captured
  // before the fill mutates it; interior block ends are read after the
  // fill, when offsets[v+1] has already become start(v+1) == end(v).
  Vertex* adj = out.adjacency.data();
  std::atomic<bool> dup{false};
  pool.run_chunks(buckets, [&](std::size_t k) {
    const std::size_t vert_begin = k * verts_per_bucket;
    const std::size_t vert_end = std::min(n, vert_begin + verts_per_bucket);
    if (vert_begin >= vert_end) return;
    Offset* base = offsets + vert_begin;
    const Offset span_end = offsets[vert_end - 1];  // END of last block
    for (std::uint64_t i = bucket_begin[k + 1]; i-- > bucket_begin[k];) {
      adj[--base[owners[i]]] = nbrs[i];
    }
    bool local_dup = false;
    for (std::size_t v = vert_begin; v < vert_end; ++v) {
      Vertex* first = adj + offsets[v];
      Vertex* last =
          adj + (v + 1 < vert_end ? static_cast<std::size_t>(offsets[v + 1])
                                  : static_cast<std::size_t>(span_end));
      local_dup |= sort_neighbours(first, last);
    }
    if (local_dup) dup.store(true, std::memory_order_relaxed);
  });
  out.has_duplicate = dup.load(std::memory_order_relaxed);
  return out;
}

template <typename Offset>
CsrArrays<Offset> scatter_csr_dispatch(
    std::size_t n, const std::vector<std::pair<Vertex, Vertex>>& edges,
    BuildPool& pool) {
  // Deterministic decomposition: the bucket count is a pure function of
  // (n, m). A bucket's *working set* — its offsets slice plus its share
  // of the staged owner/neighbour arrays and the adjacency span being
  // scattered and sorted — should fit L2. Sizing on adjacency bytes alone
  // (the old rule) let low-degree families pick vertex spans whose
  // offset/staging traffic blew the cache: the 2D torus (2m = 4n) ran its
  // bucket passes on ~1 MiB working sets and capped below 3x vs serial.
  // Per-vertex cost = one Offset + (2m/n) half-edges at ~10 bytes each
  // (staged owner ~2 + staged neighbour 4 + adjacency slot 4). The span
  // is rounded *down* to a power of two (shifts, not divides, in the hot
  // passes) and floored so at most 1024 buckets exist.
  constexpr std::size_t kBucketSpanBytes = 512 * 1024;
  constexpr std::size_t kHalfEdgeBytes = 10;
  const std::size_t m = edges.size();
  const std::size_t per_vertex_denominator =
      n * sizeof(Offset) + 2 * m * kHalfEdgeBytes;
  const std::size_t raw_span = std::max<std::size_t>(
      1, n > 0 ? kBucketSpanBytes * n / std::max<std::size_t>(
                                            1, per_vertex_denominator)
               : 1);
  const std::size_t min_span = std::max<std::size_t>(1, (n + 1023) / 1024);
  unsigned bucket_shift = 0;
  // Floor raw_span to a power of two, then raise to honour the
  // 1024-bucket ceiling.
  while ((std::size_t{2} << bucket_shift) <= raw_span) ++bucket_shift;
  while ((std::size_t{1} << bucket_shift) < min_span) ++bucket_shift;
  const std::size_t verts_per_bucket = std::size_t{1} << bucket_shift;
  const std::size_t buckets = (n + verts_per_bucket - 1) / verts_per_bucket;
  if (verts_per_bucket <= 65536) {
    return scatter_csr<Offset, std::uint16_t>(n, edges, pool, buckets,
                                              bucket_shift);
  }
  return scatter_csr<Offset, std::uint32_t>(n, edges, pool, buckets,
                                            bucket_shift);
}

/// First duplicate in (min,max)-lexicographic order, whatever the queue
/// order. The lowest vertex v whose list has an adjacent equal pair owns
/// the lexicographically first duplicate (a duplicate {a,b}, a<b, shows
/// as two b's in a's list, and any smaller duplicate would have been
/// found at its own smaller min endpoint).
template <typename Offset>
std::pair<Vertex, Vertex> first_duplicate(const CsrArrays<Offset>& arrays,
                                          std::size_t n) {
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex* first = arrays.adjacency.data() + arrays.offsets[v];
    const Vertex* last = arrays.adjacency.data() + arrays.offsets[v + 1];
    const Vertex* it = std::adjacent_find(first, last);
    if (it != last) {
      const Vertex w = *it;
      return {static_cast<Vertex>(std::min<std::size_t>(v, w)),
              static_cast<Vertex>(std::max<std::size_t>(v, w))};
    }
  }
  return {0, 0};  // unreachable when has_duplicate was set
}

/// Rewrites the CSR with each neighbour list deduplicated in place
/// (build_dedup semantics: equivalent to dropping duplicate queued edges).
template <typename Offset>
void compact_unique(CsrArrays<Offset>& arrays, std::size_t n,
                    BuildPool& pool) {
  const std::size_t vertex_chunks = (n + kVertexChunk - 1) / kVertexChunk;
  std::vector<Offset> ucount(n, 0);
  const Vertex* adj = arrays.adjacency.data();
  pool.run_chunks(vertex_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kVertexChunk;
    const std::size_t end = std::min(n, begin + kVertexChunk);
    for (std::size_t v = begin; v < end; ++v) {
      const Vertex* first = adj + arrays.offsets[v];
      const Vertex* last = adj + arrays.offsets[v + 1];
      Offset unique = 0;
      for (const Vertex* it = first; it != last; ++it) {
        if (it == first || *it != *(it - 1)) ++unique;
      }
      ucount[v] = unique;
    }
  });
  std::vector<Offset> offsets(n + 1);
  Offset acc = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v] = acc;
    acc += ucount[v];
  }
  offsets[n] = acc;
  std::vector<Vertex> adjacency(acc);
  Vertex* nadj = adjacency.data();
  pool.run_chunks(vertex_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kVertexChunk;
    const std::size_t end = std::min(n, begin + kVertexChunk);
    for (std::size_t v = begin; v < end; ++v) {
      std::unique_copy(adj + arrays.offsets[v], adj + arrays.offsets[v + 1],
                       nadj + offsets[v]);
    }
  });
  arrays.offsets = std::move(offsets);
  arrays.adjacency = std::move(adjacency);
}

template <typename Offset>
Graph assemble(std::size_t n, const std::vector<std::pair<Vertex, Vertex>>& edges,
               std::string name, bool allow_duplicates, BuildPool& pool) {
  CsrArrays<Offset> arrays = scatter_csr_dispatch<Offset>(n, edges, pool);
  std::optional<Graph::DegreeRange> degrees =
      Graph::DegreeRange{arrays.min_degree, arrays.max_degree};
  if (arrays.has_duplicate) {
    if (!allow_duplicates) {
      const auto [u, v] = first_duplicate(arrays, n);
      throw std::invalid_argument(
          "duplicate edge {" + std::to_string(u) + "," + std::to_string(v) +
          "} in graph '" + name + "'");
    }
    compact_unique(arrays, n, pool);
    degrees.reset();  // compaction changed degrees; the constructor scans
  }
  return Graph(std::move(arrays.offsets), std::move(arrays.adjacency),
               std::move(name), degrees);
}

Graph assemble_dispatch(std::size_t n,
                        const std::vector<std::pair<Vertex, Vertex>>& edges,
                        std::string name, bool allow_duplicates) {
  BuildPool pool(edges.size() >= kParallelEdgeThreshold);
  if (csr_offsets_fit_32bit(static_cast<std::uint64_t>(edges.size()) * 2)) {
    return assemble<std::uint32_t>(n, edges, std::move(name),
                                   allow_duplicates, pool);
  }
  return assemble<std::uint64_t>(n, edges, std::move(name), allow_duplicates,
                                 pool);
}

}  // namespace

namespace detail {

BuildPool::BuildPool(bool worthwhile) {
  const std::size_t threads = GraphBuilder::default_threads();
  if (worthwhile && threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
}

BuildPool::~BuildPool() = default;

void BuildPool::run_chunks(std::size_t chunks,
                           const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr) {
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  std::mutex mutex;
  std::exception_ptr error;
  pool_->parallel_for(chunks, [&](std::size_t c) {
    try {
      fn(c);
    } catch (...) {
      std::lock_guard lock(mutex);
      if (!error) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
}

bool sort_neighbour_list(Vertex* first, Vertex* last) {
  return sort_neighbours(first, last);
}

}  // namespace detail

GraphBuilder::GraphBuilder(std::size_t n) : num_vertices_(n) {}

void GraphBuilder::set_default_threads(std::size_t threads) noexcept {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

std::size_t GraphBuilder::default_threads() noexcept {
  const std::size_t configured =
      g_default_threads.load(std::memory_order_relaxed);
  if (configured != 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    throw_bad_edge(u, v, num_vertices_);
  }
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

void GraphBuilder::add_edges_chunked(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t,
                             std::vector<std::pair<Vertex, Vertex>>&)>& emit,
    std::size_t chunk_items) {
  if (count == 0) return;
  const std::size_t chunk_size = chunk_items == 0 ? kEmitChunk : chunk_items;
  const std::size_t chunks = (count + chunk_size - 1) / chunk_size;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> buffers(chunks);
  std::vector<unsigned char> bad(chunks, 0);
  const std::size_t n = num_vertices_;
  BuildPool pool(count >= kParallelEdgeThreshold);
  pool.run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(count, begin + chunk_size);
    auto& buffer = buffers[c];
    emit(begin, end, buffer);
    for (auto& [u, v] : buffer) {
      if (u >= n || v >= n || u == v) {
        bad[c] = 1;
        break;
      }
      if (u > v) std::swap(u, v);
    }
  });
  // Deterministic diagnostics: the first offending edge in emit order
  // (lowest chunk, then position) is re-raised with add_edge's message.
  for (std::size_t c = 0; c < chunks; ++c) {
    if (!bad[c]) continue;
    for (const auto& [u, v] : buffers[c]) {
      if (u >= n || v >= n || u == v) throw_bad_edge(u, v, n);
    }
  }
  std::size_t total = edges_.size();
  for (const auto& buffer : buffers) total += buffer.size();
  edges_.reserve(total);
  for (auto& buffer : buffers) {
    edges_.insert(edges_.end(), buffer.begin(), buffer.end());
  }
}

Graph GraphBuilder::build(std::string name) {
  return assemble_dispatch(num_vertices_, std::exchange(edges_, {}),
                           std::move(name), /*allow_duplicates=*/false);
}

Graph GraphBuilder::build_dedup(std::string name) {
  return assemble_dispatch(num_vertices_, std::exchange(edges_, {}),
                           std::move(name), /*allow_duplicates=*/true);
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Binary CSR (.cgr) reader/writer — see the format comment in io.hpp.
//
// One load path: map_cgr maps the file (platforms without mmap read it
// into one buffer instead), validates the full CSR invariant set and the
// v3 shard table in one pass, and keeps the image as the graph's backing;
// read_cgr is map_cgr followed by one copy into owned arrays. A corrupt or
// truncated file therefore cannot produce out-of-bounds neighbour
// accesses later, whichever loader read it.
//
// Writing has two paths that must stay byte-identical for the same
// content: write_cgr() for in-core graphs, and CgrShardWriter for the
// out-of-core generator, which appends one shard at a time into
// precomputed positions of the global sections. The sharded write_cgr
// overload routes through CgrShardWriter, so the identity holds by
// construction.
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define COBRA_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "graph/io.hpp"

namespace cobra {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'B', 'R', 'A', 'C', 'G', 'R'};
constexpr std::uint32_t kVersionUnweighted = 1;
constexpr std::uint32_t kVersionWeighted = 2;
constexpr std::uint32_t kVersionSharded = 3;
constexpr std::uint32_t kFlagWideOffsets = 1u << 0;
constexpr std::uint32_t kFlagWeights = 1u << 1;
/// Sanity ceilings shared by reader and writer: a forged header must not
/// turn into a giant allocation before the size cross-checks run.
constexpr std::uint64_t kMaxEndpoints = std::uint64_t{1} << 48;
constexpr std::uint32_t kMaxNameLen = 1u << 20;
constexpr std::uint64_t kMaxShards = std::uint64_t{1} << 20;

[[noreturn]] void bad_file(const std::string& path, const std::string& what) {
  throw std::invalid_argument("cgr file '" + path + "': " + what);
}

std::size_t padded8(std::size_t bytes) { return (bytes + 7) & ~std::size_t{7}; }

struct Header {
  std::uint32_t version = kVersionUnweighted;
  std::uint32_t flags = 0;
  std::uint64_t n = 0;
  std::uint64_t endpoints = 0;
  std::string name;
  // v3 shard table (empty for v1/v2): shard i ends at vertex
  // min(n, (i+1)*shard_span) and at adjacency slot shard_prefix[i].
  std::uint64_t shard_span = 0;
  std::vector<std::uint64_t> shard_prefix;

  bool wide() const { return (flags & kFlagWideOffsets) != 0; }
  bool weighted() const { return (flags & kFlagWeights) != 0; }
  bool sharded() const { return version == kVersionSharded; }

  std::size_t shard_table_bytes() const {
    return sharded() ? 16 + 8 * shard_prefix.size() : 0;
  }
  std::size_t offsets_bytes() const {
    return (static_cast<std::size_t>(n) + 1) * (wide() ? 8 : 4);
  }
  std::size_t adjacency_bytes() const {
    return static_cast<std::size_t>(endpoints) * sizeof(Vertex);
  }
  std::size_t weights_bytes() const {
    return weighted() ? static_cast<std::size_t>(endpoints) * sizeof(float)
                      : 0;
  }
  std::size_t offsets_at() const {
    return 32 + padded8(name.size() + 4) + shard_table_bytes();
  }
  std::size_t adjacency_at() const { return offsets_at() + offsets_bytes(); }
  std::size_t weights_at() const { return adjacency_at() + adjacency_bytes(); }
  /// Total file size implied by the header.
  std::size_t file_bytes() const { return weights_at() + weights_bytes(); }
};

/// Validates the CSR arrays of a loaded graph: monotone offsets bracketed
/// by [0, 2m], and sorted, in-range, loop-free neighbour lists. O(n + m),
/// a single sequential pass — negligible next to the IO itself (and for a
/// mapped load it doubles as the page-cache warmup).
template <typename Offset>
void validate_csr(const std::string& path, std::uint64_t n,
                  std::uint64_t endpoints, const Offset* offsets,
                  const Vertex* adjacency) {
  if (offsets[0] != 0) bad_file(path, "offsets[0] != 0");
  if (offsets[n] != endpoints) {
    bad_file(path, "offsets[n] does not equal the adjacency length");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const Offset begin = offsets[v];
    const Offset end = offsets[v + 1];
    // Bounds before contents: no neighbour of v is read until its block
    // is known to lie inside the adjacency array.
    if (begin > end || end > endpoints) {
      bad_file(path, "offsets not monotone within the adjacency length at "
                     "vertex " + std::to_string(v));
    }
    for (Offset i = begin; i < end; ++i) {
      const Vertex w = adjacency[i];
      if (w >= n) bad_file(path, "neighbour out of range at vertex " +
                                     std::to_string(v));
      if (w == v) bad_file(path, "self-loop at vertex " + std::to_string(v));
      if (i > begin && adjacency[i - 1] >= w) {
        bad_file(path, "neighbour list not strictly sorted at vertex " +
                           std::to_string(v));
      }
    }
  }
}

/// v3 only: the shard table must agree with the offsets array — each
/// entry is the global offset at its shard's end vertex. O(S).
template <typename Offset>
void validate_shard_table(const std::string& path, const Header& header,
                          const Offset* offsets) {
  for (std::size_t i = 0; i < header.shard_prefix.size(); ++i) {
    const std::uint64_t v_end =
        std::min<std::uint64_t>(header.n, (i + 1) * header.shard_span);
    if (static_cast<std::uint64_t>(offsets[v_end]) != header.shard_prefix[i]) {
      bad_file(path, "shard table disagrees with offsets at shard " +
                         std::to_string(i));
    }
  }
}

class FileImage {
 public:
  explicit FileImage(const std::string& path) : path_(path) {
#if COBRA_HAVE_MMAP
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) bad_file(path, "cannot open");
    struct stat st {};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
      ::close(fd_);
      bad_file(path, "cannot stat");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
      if (map == MAP_FAILED) {
        ::close(fd_);
        bad_file(path, "mmap failed");
      }
      data_ = static_cast<const unsigned char*>(map);
    }
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) bad_file(path, "cannot open");
    in.seekg(0, std::ios::end);
    size_ = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    buffer_.resize(size_);
    if (size_ > 0 &&
        !in.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(size_))) {
      bad_file(path, "short read");
    }
    data_ = buffer_.data();
#endif
  }

  ~FileImage() {
#if COBRA_HAVE_MMAP
    if (data_ != nullptr) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
    if (fd_ >= 0) ::close(fd_);
#endif
  }

  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;

  std::size_t size() const noexcept { return size_; }
  const unsigned char* data() const noexcept { return data_; }

  /// Copies `bytes` at `offset` into `out`; throws on out-of-bounds
  /// (i.e. a truncated file).
  void copy(std::size_t offset, void* out, std::size_t bytes) const {
    if (offset + bytes < offset || offset + bytes > size_) {
      bad_file(path_, "truncated (wanted " + std::to_string(offset + bytes) +
                          " bytes, have " + std::to_string(size_) + ")");
    }
    if (bytes == 0) return;  // out may be null for empty sections
    std::memcpy(out, data_ + offset, bytes);
  }

 private:
  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
#if COBRA_HAVE_MMAP
  int fd_ = -1;
#else
  std::vector<unsigned char> buffer_;
#endif
};

/// Parses and sanity-checks the header (magic through shard table plus the
/// total-size cross-check) — shared by map_cgr and read_cgr_info. Array
/// contents are NOT validated here.
Header parse_header(const FileImage& image, const std::string& path) {
  char magic[8];
  image.copy(0, magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) bad_file(path, "bad magic");
  Header header;
  image.copy(8, &header.version, 4);
  if (header.version != kVersionUnweighted &&
      header.version != kVersionWeighted &&
      header.version != kVersionSharded) {
    bad_file(path, "unsupported version " + std::to_string(header.version));
  }
  image.copy(12, &header.flags, 4);
  if ((header.flags & ~(kFlagWideOffsets | kFlagWeights)) != 0) {
    bad_file(path, "unknown flags");
  }
  if (header.weighted() && header.version == kVersionUnweighted) {
    bad_file(path, "weight section flagged in a version-1 file");
  }
  image.copy(16, &header.n, 8);
  image.copy(24, &header.endpoints, 8);
  if (header.n > std::numeric_limits<Vertex>::max()) {
    bad_file(path, "vertex count exceeds 32-bit ids");
  }
  // Bound endpoints before any size arithmetic: a forged huge value would
  // overflow adjacency_bytes()/file_bytes() (defeating the truncation
  // check) and reach the vector allocation as bad_alloc instead of the
  // documented invalid_argument. 2^48 endpoints = 1 PiB of adjacency —
  // far past any real file.
  if (header.endpoints > kMaxEndpoints) {
    bad_file(path, "implausible adjacency length " +
                       std::to_string(header.endpoints));
  }
  if (header.wide() == csr_offsets_fit_32bit(header.endpoints)) {
    bad_file(path, "offset width flag inconsistent with adjacency length");
  }
  std::uint32_t name_len = 0;
  image.copy(32, &name_len, 4);
  if (name_len > kMaxNameLen) bad_file(path, "implausible name length");
  header.name.resize(name_len);
  if (name_len > 0) image.copy(36, header.name.data(), name_len);
  if (header.sharded()) {
    const std::size_t table_at = 32 + padded8(name_len + 4);
    std::uint64_t shards = 0;
    image.copy(table_at, &shards, 8);
    image.copy(table_at + 8, &header.shard_span, 8);
    if (shards == 0 || shards > kMaxShards) {
      bad_file(path, "implausible shard count " + std::to_string(shards));
    }
    if (header.shard_span == 0 || header.n == 0) {
      bad_file(path, "sharded file requires n >= 1 and shard_span >= 1");
    }
    if (shards != (header.n + header.shard_span - 1) / header.shard_span) {
      bad_file(path, "shard count inconsistent with n and shard_span");
    }
    header.shard_prefix.resize(shards);
    image.copy(table_at + 16, header.shard_prefix.data(), 8 * shards);
    for (std::size_t i = 0; i < header.shard_prefix.size(); ++i) {
      if (i > 0 && header.shard_prefix[i] < header.shard_prefix[i - 1]) {
        bad_file(path, "shard table not monotone at shard " +
                           std::to_string(i));
      }
    }
    if (header.shard_prefix.back() != header.endpoints) {
      bad_file(path, "shard table does not sum to the adjacency length");
    }
  }
  if (header.file_bytes() != image.size()) {
    bad_file(path, "size mismatch (header implies " +
                       std::to_string(header.file_bytes()) +
                       " bytes, file has " + std::to_string(image.size()) +
                       ")");
  }
  return header;
}

std::string resolve_name(std::string requested, Header& header,
                         const std::string& path) {
  if (!requested.empty()) return requested;
  if (!header.name.empty()) return std::move(header.name);
  return "cgr(" + path + ")";
}

}  // namespace

void write_cgr(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::invalid_argument("cgr file '" + path + "': cannot open for "
                                "writing");
  }
  // Unweighted graphs write version 1 bytes — identical to the
  // pre-weights format, so stripped instances compare equal to
  // never-weighted baselines.
  const std::uint32_t version =
      g.is_weighted() ? kVersionWeighted : kVersionUnweighted;
  const std::uint32_t flags = (g.offsets_are_wide() ? kFlagWideOffsets : 0) |
                              (g.is_weighted() ? kFlagWeights : 0);
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t endpoints = g.adjacency().size();
  const std::string& name = g.name();
  const auto name_len = static_cast<std::uint32_t>(name.size());
  out.write(kMagic, sizeof kMagic);
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&flags), 4);
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&endpoints), 8);
  out.write(reinterpret_cast<const char*>(&name_len), 4);
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  const std::size_t pad = padded8(name.size() + 4) - (name.size() + 4);
  const char zeros[8] = {};
  out.write(zeros, static_cast<std::streamsize>(pad));
  if (g.offsets_are_wide()) {
    out.write(reinterpret_cast<const char*>(g.offsets64().data()),
              static_cast<std::streamsize>(g.offsets64().size() * 8));
  } else {
    out.write(reinterpret_cast<const char*>(g.offsets32().data()),
              static_cast<std::streamsize>(g.offsets32().size() * 4));
  }
  out.write(reinterpret_cast<const char*>(g.adjacency().data()),
            static_cast<std::streamsize>(g.adjacency().size() * sizeof(Vertex)));
  if (g.is_weighted()) {
    out.write(reinterpret_cast<const char*>(g.weights().data()),
              static_cast<std::streamsize>(g.weights().size() * sizeof(float)));
  }
  out.flush();
  if (!out) throw std::invalid_argument("cgr file '" + path + "': write failed");
}

void write_cgr(const Graph& g, const std::string& path,
               const CgrWriteOptions& options) {
  if (options.shards == 0) {
    write_cgr(g, path);
    return;
  }
  const std::uint64_t n = g.num_vertices();
  if (n == 0) bad_file(path, "cannot shard an empty graph");
  const std::uint64_t span = (n + options.shards - 1) / options.shards;
  const std::uint64_t shards = (n + span - 1) / span;
  CgrShardWriter::Plan plan;
  plan.n = n;
  plan.shard_span = span;
  plan.weighted = g.is_weighted();
  plan.name = g.name();
  plan.shard_endpoints.resize(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    const auto v0 = static_cast<Vertex>(i * span);
    const auto v1 = static_cast<Vertex>(std::min<std::uint64_t>(n, v0 + span));
    plan.shard_endpoints[i] = g.offset(v1) - g.offset(v0);
  }
  CgrShardWriter writer(path, std::move(plan));
  std::vector<std::uint64_t> local;
  for (std::uint64_t i = 0; i < shards; ++i) {
    const auto v0 = static_cast<Vertex>(i * span);
    const auto v1 = static_cast<Vertex>(std::min<std::uint64_t>(n, v0 + span));
    const std::size_t base = g.offset(v0);
    const std::size_t count = g.offset(v1) - base;
    local.resize(v1 - v0 + 1);
    for (Vertex v = v0; v <= v1; ++v) local[v - v0] = g.offset(v) - base;
    writer.append_shard(
        local, g.adjacency().subspan(base, count),
        g.is_weighted() ? g.weights().subspan(base, count)
                        : std::span<const float>{});
  }
  writer.finish();
}

Graph read_cgr(const std::string& path, std::string name) {
  const Graph mapped = map_cgr(path, std::move(name));
  // The u64 constructor narrows the offsets back to the file's u32 width
  // when 2m < 2^32, so the copy needs no width branch of its own.
  std::vector<std::uint64_t> offsets(mapped.num_vertices() + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) {
    offsets[v] = mapped.offset(static_cast<Vertex>(v));
  }
  const auto adjacency = mapped.adjacency();
  Graph g(std::move(offsets),
          std::vector<Vertex>(adjacency.begin(), adjacency.end()),
          mapped.name(),
          Graph::DegreeRange{mapped.min_degree(), mapped.max_degree()});
  if (mapped.is_weighted()) {
    g.attach_weights({mapped.weights().begin(), mapped.weights().end()});
  }
  return g;
}

Graph map_cgr(const std::string& path, std::string name) {
  auto image = std::make_shared<FileImage>(path);
  Header header = parse_header(*image, path);
  const unsigned char* base = image->data();
  // Section positions depend on header.name, which resolve_name consumes —
  // pin every pointer first.
  const unsigned char* offsets_base = base + header.offsets_at();
  const Vertex* adjacency =
      reinterpret_cast<const Vertex*>(base + header.adjacency_at());
  const float* weights =
      header.weighted()
          ? reinterpret_cast<const float*>(base + header.weights_at())
          : nullptr;
  // The borrowed constructor (unlike attach_weights) trusts its inputs,
  // so the weights are checked here.
  for (std::uint64_t i = 0; i < (weights ? header.endpoints : 0); ++i) {
    if (!std::isfinite(weights[i]) || !(weights[i] > 0.0f)) {
      bad_file(path, "edge weight at slot " + std::to_string(i) +
                         " must be positive and finite");
    }
  }
  std::string final_name = resolve_name(std::move(name), header, path);
  const std::span<const float> w_span(weights, weights ? header.endpoints : 0);
  const auto borrow = [&](const auto* offsets) {
    validate_csr(path, header.n, header.endpoints, offsets, adjacency);
    if (header.sharded()) validate_shard_table(path, header, offsets);
    return Graph(std::span(offsets, header.n + 1),
                 std::span<const Vertex>(adjacency, header.endpoints), w_span,
                 std::move(image), std::move(final_name));
  };
  if (header.wide()) {
    return borrow(reinterpret_cast<const std::uint64_t*>(offsets_base));
  }
  return borrow(reinterpret_cast<const std::uint32_t*>(offsets_base));
}

CgrInfo read_cgr_info(const std::string& path) {
  FileImage image(path);
  Header header = parse_header(image, path);
  CgrInfo info;
  info.version = header.version;
  info.wide = header.wide();
  info.weighted = header.weighted();
  info.n = header.n;
  info.endpoints = header.endpoints;
  info.shard_span = header.shard_span;
  info.file_bytes = header.file_bytes();  // before the moves below
  info.shard_endpoint_end = std::move(header.shard_prefix);
  info.name = std::move(header.name);
  return info;
}

bool is_cgr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  if (!in.read(magic, 8)) return false;
  return std::memcmp(magic, kMagic, 8) == 0;
}

// ---- CgrShardWriter ----

struct CgrShardWriter::Impl {
  std::string path;
  Plan plan;
  std::ofstream out;
  bool wide = false;
  std::uint64_t endpoints_total = 0;
  std::uint64_t shards = 0;
  std::uint64_t next_shard = 0;
  std::uint64_t base = 0;  ///< endpoints appended so far
  std::uint64_t offsets_at = 0;
  std::uint64_t adjacency_at = 0;
  std::uint64_t weights_at = 0;
  std::vector<unsigned char> narrow;  ///< offset write staging
  bool finished = false;
};

CgrShardWriter::CgrShardWriter(const std::string& path, Plan plan)
    : impl_(std::make_unique<Impl>()) {
  Impl& impl = *impl_;
  impl.path = path;
  if (plan.n == 0 || plan.shard_span == 0) {
    bad_file(path, "shard plan requires n >= 1 and shard_span >= 1");
  }
  const std::uint64_t shards =
      (plan.n + plan.shard_span - 1) / plan.shard_span;
  if (shards > kMaxShards || plan.shard_endpoints.size() != shards) {
    bad_file(path, "shard plan has " +
                       std::to_string(plan.shard_endpoints.size()) +
                       " endpoint counts, expected " + std::to_string(shards));
  }
  if (plan.name.size() > kMaxNameLen) bad_file(path, "name too long");
  std::uint64_t endpoints = 0;
  for (const std::uint64_t count : plan.shard_endpoints) endpoints += count;
  if (endpoints > kMaxEndpoints) bad_file(path, "implausible adjacency length");
  impl.plan = std::move(plan);
  impl.shards = shards;
  impl.endpoints_total = endpoints;
  impl.wide = !csr_offsets_fit_32bit(endpoints);

  impl.out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl.out) bad_file(path, "cannot open for writing");
  const std::uint32_t version = kVersionSharded;
  const std::uint32_t flags = (impl.wide ? kFlagWideOffsets : 0) |
                              (impl.plan.weighted ? kFlagWeights : 0);
  const std::uint64_t n = impl.plan.n;
  const auto name_len = static_cast<std::uint32_t>(impl.plan.name.size());
  impl.out.write(kMagic, sizeof kMagic);
  impl.out.write(reinterpret_cast<const char*>(&version), 4);
  impl.out.write(reinterpret_cast<const char*>(&flags), 4);
  impl.out.write(reinterpret_cast<const char*>(&n), 8);
  impl.out.write(reinterpret_cast<const char*>(&endpoints), 8);
  impl.out.write(reinterpret_cast<const char*>(&name_len), 4);
  impl.out.write(impl.plan.name.data(),
                 static_cast<std::streamsize>(impl.plan.name.size()));
  const std::size_t pad =
      padded8(impl.plan.name.size() + 4) - (impl.plan.name.size() + 4);
  const char zeros[8] = {};
  impl.out.write(zeros, static_cast<std::streamsize>(pad));
  impl.out.write(reinterpret_cast<const char*>(&shards), 8);
  impl.out.write(reinterpret_cast<const char*>(&impl.plan.shard_span), 8);
  std::uint64_t prefix = 0;
  for (const std::uint64_t count : impl.plan.shard_endpoints) {
    prefix += count;
    impl.out.write(reinterpret_cast<const char*>(&prefix), 8);
  }
  if (!impl.out) bad_file(path, "write failed");
  const std::size_t width = impl.wide ? 8 : 4;
  impl.offsets_at = 32 + padded8(impl.plan.name.size() + 4) + 16 + 8 * shards;
  impl.adjacency_at = impl.offsets_at + (n + 1) * width;
  impl.weights_at = impl.adjacency_at + endpoints * sizeof(Vertex);
}

CgrShardWriter::~CgrShardWriter() = default;

void CgrShardWriter::append_shard(std::span<const std::uint64_t> local_offsets,
                                  std::span<const Vertex> adjacency,
                                  std::span<const float> weights) {
  Impl& impl = *impl_;
  if (impl.next_shard >= impl.shards) {
    bad_file(impl.path, "append_shard past the planned shard count");
  }
  const std::uint64_t index = impl.next_shard;
  const std::uint64_t v0 = index * impl.plan.shard_span;
  const std::uint64_t v1 =
      std::min<std::uint64_t>(impl.plan.n, v0 + impl.plan.shard_span);
  const std::uint64_t expected = impl.plan.shard_endpoints[index];
  if (local_offsets.size() != v1 - v0 + 1 || local_offsets.front() != 0 ||
      local_offsets.back() != expected || adjacency.size() != expected ||
      weights.size() != (impl.plan.weighted ? expected : 0)) {
    bad_file(impl.path,
             "shard " + std::to_string(index) + " sections do not match the "
             "plan");
  }
  // Offsets slice: rebase local -> global and narrow to the file's width.
  // The shared boundary entry is written by the *next* shard (its
  // local_offsets[0]); only the last shard writes its end entry, which is
  // the global offsets[n].
  const std::uint64_t entries = (v1 - v0) + (v1 == impl.plan.n ? 1 : 0);
  const std::size_t width = impl.wide ? 8 : 4;
  impl.narrow.resize(entries * width);
  if (impl.wide) {
    auto* out = reinterpret_cast<std::uint64_t*>(impl.narrow.data());
    for (std::uint64_t i = 0; i < entries; ++i) {
      out[i] = impl.base + local_offsets[i];
    }
  } else {
    auto* out = reinterpret_cast<std::uint32_t*>(impl.narrow.data());
    for (std::uint64_t i = 0; i < entries; ++i) {
      out[i] = static_cast<std::uint32_t>(impl.base + local_offsets[i]);
    }
  }
  impl.out.seekp(static_cast<std::streamoff>(impl.offsets_at + v0 * width));
  impl.out.write(reinterpret_cast<const char*>(impl.narrow.data()),
                 static_cast<std::streamsize>(impl.narrow.size()));
  impl.out.seekp(static_cast<std::streamoff>(impl.adjacency_at +
                                             impl.base * sizeof(Vertex)));
  impl.out.write(reinterpret_cast<const char*>(adjacency.data()),
                 static_cast<std::streamsize>(adjacency.size() *
                                              sizeof(Vertex)));
  if (impl.plan.weighted) {
    impl.out.seekp(static_cast<std::streamoff>(impl.weights_at +
                                               impl.base * sizeof(float)));
    impl.out.write(reinterpret_cast<const char*>(weights.data()),
                   static_cast<std::streamsize>(weights.size() *
                                                sizeof(float)));
  }
  if (!impl.out) bad_file(impl.path, "write failed");
  impl.base += expected;
  ++impl.next_shard;
}

void CgrShardWriter::finish() {
  Impl& impl = *impl_;
  if (impl.finished) return;
  if (impl.next_shard != impl.shards) {
    bad_file(impl.path, "finish() with " + std::to_string(impl.next_shard) +
                            " of " + std::to_string(impl.shards) +
                            " shards appended");
  }
  impl.out.flush();
  if (!impl.out) bad_file(impl.path, "write failed");
  impl.finished = true;
}

}  // namespace cobra

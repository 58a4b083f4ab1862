// SPDX-License-Identifier: MIT
#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "rand/alias.hpp"

namespace cobra {

/// Heap cell for attach_weights' array and the lazily-built alias tables:
/// the once_flag is not copyable, so it lives behind a shared_ptr that
/// Graph's value semantics can share (copies of an immutable weighted
/// graph want the same tables). A mapped graph's weights stay in the
/// mapping and `weights` stays empty.
struct GraphAliasCell {
  std::vector<float> weights;
  std::once_flag once;
  GraphAliasTables tables;
};

namespace {

/// The arrays an owned graph took over at construction.
template <typename Offset>
struct OwnedCsr {
  std::vector<Offset> offsets;
  std::vector<Vertex> adjacency;
};

}  // namespace

Graph::Graph() : Graph(std::vector<std::uint32_t>{0}, {}, "empty") {}

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<Vertex> adjacency,
             std::string name, std::optional<DegreeRange> degrees)
    : name_(std::move(name)) {
  adopt(std::move(offsets), std::move(adjacency), degrees);
}

Graph::Graph(std::vector<std::uint64_t> offsets, std::vector<Vertex> adjacency,
             std::string name, std::optional<DegreeRange> degrees)
    : name_(std::move(name)) {
  if (csr_offsets_fit_32bit(adjacency.size())) {
    adopt(std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
          std::move(adjacency), degrees);
  } else {
    adopt(std::move(offsets), std::move(adjacency), degrees);
  }
}

Graph::Graph(std::span<const std::uint32_t> offsets,
             std::span<const Vertex> adjacency, std::span<const float> weights,
             std::shared_ptr<const void> backing, std::string name)
    : name_(std::move(name)), mapped_(true) {
  view(offsets, adjacency, weights, std::move(backing), std::nullopt);
}

Graph::Graph(std::span<const std::uint64_t> offsets,
             std::span<const Vertex> adjacency, std::span<const float> weights,
             std::shared_ptr<const void> backing, std::string name)
    : name_(std::move(name)), mapped_(true) {
  view(offsets, adjacency, weights, std::move(backing), std::nullopt);
}

Graph::Graph(const Graph& other, std::string name) : Graph(other) {
  name_ = std::move(name);
}

template <typename Offset>
void Graph::adopt(std::vector<Offset> offsets, std::vector<Vertex> adjacency,
                  std::optional<DegreeRange> degrees) {
  if (offsets.empty()) offsets.push_back(0);
  auto owned = std::make_shared<const OwnedCsr<Offset>>(
      OwnedCsr<Offset>{std::move(offsets), std::move(adjacency)});
  // Not owned->offsets below: the arguments may be evaluated after
  // `owned` is moved from.
  const OwnedCsr<Offset>& arrays = *owned;
  view(std::span<const Offset>(arrays.offsets), arrays.adjacency, {},
       std::move(owned), degrees);
}

template <typename Offset>
void Graph::view(std::span<const Offset> offsets,
                 std::span<const Vertex> adjacency,
                 std::span<const float> weights,
                 std::shared_ptr<const void> backing,
                 std::optional<DegreeRange> degrees) {
  if constexpr (sizeof(Offset) == 8) {
    off64_view_ = offsets;
    wide_ = true;
  } else {
    off32_view_ = offsets;
  }
  adj_view_ = adjacency;
  w_view_ = weights;
  backing_ = std::move(backing);
  if (!w_view_.empty()) alias_cell_ = std::make_shared<GraphAliasCell>();
  num_vertices_ = offsets.size() - 1;
  if (num_vertices_ == 0) return;
  if (!degrees) {
    degrees = DegreeRange{std::numeric_limits<std::size_t>::max(), 0};
    for (Vertex v = 0; v < num_vertices_; ++v) {
      degrees->min = std::min(degrees->min, degree(v));
      degrees->max = std::max(degrees->max, degree(v));
    }
  }
  min_degree_ = degrees->min;
  max_degree_ = degrees->max;
  regularity_ =
      min_degree_ == max_degree_ ? static_cast<int>(min_degree_) : -1;
}

std::size_t Graph::resident_bytes() const noexcept {
  const std::size_t owned_weights =
      alias_cell_ ? alias_cell_->weights.size() * sizeof(float) : 0;
  if (mapped_) return owned_weights;
  return memory_bytes() - w_view_.size() * sizeof(float) + owned_weights;
}

void Graph::attach_weights(std::vector<float> weights) {
  if (weights.size() != adj_view_.size()) {
    throw std::invalid_argument(
        "graph '" + name_ + "': weight array has " +
        std::to_string(weights.size()) + " entries, adjacency has " +
        std::to_string(adj_view_.size()));
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i]) || !(weights[i] > 0.0f)) {
      throw std::invalid_argument(
          "graph '" + name_ + "': edge weight at slot " + std::to_string(i) +
          " must be positive and finite");
    }
  }
  auto cell = std::make_shared<GraphAliasCell>();
  cell->weights = std::move(weights);
  w_view_ = cell->weights;
  alias_cell_ = w_view_.empty() ? nullptr : std::move(cell);
}

const GraphAliasTables& Graph::alias_tables() const {
  if (!is_weighted()) {
    throw std::logic_error("graph '" + name_ +
                           "': alias_tables() requires edge weights");
  }
  std::call_once(alias_cell_->once, [this] {
    GraphAliasTables& tables = alias_cell_->tables;
    tables.prob_.resize(w_view_.size());
    tables.alias_.resize(w_view_.size());
    // Per-vertex rows are independent, so the build runs over the
    // substrate's fixed vertex chunks on its build pool; the table
    // contents are a pure function of the weights, whatever the thread
    // count.
    using detail::kVertexChunk;
    constexpr std::size_t kParallelEndpointThreshold = 1 << 16;
    const std::size_t chunks =
        (num_vertices_ + kVertexChunk - 1) / kVertexChunk;
    detail::BuildPool pool(chunks > 1 &&
                           w_view_.size() >= kParallelEndpointThreshold);
    pool.run_chunks(chunks, [&](std::size_t c) {
      // A thread_local keeps one scratch per participating thread.
      thread_local AliasScratch scratch;
      const auto begin_v = static_cast<Vertex>(c * kVertexChunk);
      const auto end_v = static_cast<Vertex>(
          std::min<std::size_t>(num_vertices_, begin_v + kVertexChunk));
      for (Vertex v = begin_v; v < end_v; ++v) {
        const std::size_t begin = offset(v);
        const std::size_t end = offset(v + 1);
        if (begin == end) continue;
        build_alias_row(w_view_.subspan(begin, end - begin),
                        tables.prob_.data() + begin,
                        tables.alias_.data() + begin, scratch);
      }
    });
  });
  return alias_cell_->tables;
}

Graph Graph::strip_weights() const {
  Graph stripped = *this;
  stripped.w_view_ = {};
  stripped.alias_cell_ = nullptr;
  return stripped;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= num_vertices_ || v >= num_vertices_) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace cobra

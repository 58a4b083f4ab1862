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
#include "sim/thread_pool.hpp"

namespace cobra {

/// Heap cell for the lazily-built alias tables: the once_flag is not
/// copyable, so it lives behind a shared_ptr that Graph's value semantics
/// can share (copies of an immutable weighted graph want the same tables).
struct GraphAliasCell {
  std::once_flag once;
  GraphAliasTables tables;
};

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
  weights_ = std::move(weights);
  w_view_ = weights_;
  alias_cell_ =
      weights_.empty() ? nullptr : std::make_shared<GraphAliasCell>();
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
    // Per-vertex rows are independent, so the build parallelizes over
    // fixed vertex chunks like the rest of the substrate (honouring the
    // same GraphBuilder::set_default_threads knob); the table contents
    // are a pure function of the weights, whatever the thread count.
    constexpr std::size_t kVertexChunk = 1 << 15;
    constexpr std::size_t kParallelEndpointThreshold = 1 << 16;
    const std::size_t chunks =
        (num_vertices_ + kVertexChunk - 1) / kVertexChunk;
    const auto build_chunk = [&](std::size_t c, AliasScratch& scratch) {
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
    };
    const std::size_t threads = GraphBuilder::default_threads();
    if (chunks > 1 && threads > 1 &&
        w_view_.size() >= kParallelEndpointThreshold) {
      ThreadPool pool(threads - 1);
      // One scratch per worker slot would need stateful dispatch; a
      // thread_local keeps the reuse without bookkeeping.
      pool.parallel_for(chunks, [&](std::size_t c) {
        thread_local AliasScratch scratch;
        build_chunk(c, scratch);
      });
    } else {
      AliasScratch scratch;
      for (std::size_t c = 0; c < chunks; ++c) build_chunk(c, scratch);
    }
  });
  return alias_cell_->tables;
}

Graph Graph::strip_weights() const {
  // Member-wise copy that never touches the weights or the alias cell — a
  // full copy-then-clear would transiently duplicate the 8m-byte weight
  // array just to throw it away. Borrowed offset/adjacency views (mapped
  // graphs) are carried over together with the backing handle; only an
  // *owned* weight array is left behind.
  Graph stripped;
  stripped.offsets32_ = offsets32_;
  stripped.offsets64_ = offsets64_;
  stripped.adjacency_ = adjacency_;
  stripped.off32_view_ = off32_view_;
  stripped.off64_view_ = off64_view_;
  stripped.adj_view_ = adj_view_;
  stripped.backing_ = backing_;
  stripped.rebind_after_copy(*this);
  stripped.w_view_ = {};
  stripped.name_ = name_;
  stripped.num_vertices_ = num_vertices_;
  stripped.min_degree_ = min_degree_;
  stripped.max_degree_ = max_degree_;
  stripped.regularity_ = regularity_;
  stripped.wide_ = wide_;
  return stripped;
}

Graph::Graph(std::vector<std::size_t> offsets, std::vector<Vertex> adjacency,
             std::string name)
    : adjacency_(std::move(adjacency)),
      name_(std::move(name)),
      num_vertices_(offsets.empty() ? 0 : offsets.size() - 1) {
  wide_ = !csr_offsets_fit_32bit(adjacency_.size());
  if (wide_) {
    offsets64_.assign(offsets.begin(), offsets.end());
    offsets32_.clear();
  } else {
    offsets32_.assign(offsets.begin(), offsets.end());
    if (offsets32_.empty()) offsets32_.push_back(0);
  }
  bind_owned();
  finish_stats();
}

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<Vertex> adjacency,
             std::string name)
    : offsets32_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      name_(std::move(name)),
      num_vertices_(offsets32_.empty() ? 0 : offsets32_.size() - 1),
      wide_(false) {
  if (offsets32_.empty()) offsets32_.push_back(0);
  bind_owned();
  finish_stats();
}

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<Vertex> adjacency,
             std::string name, std::size_t min_degree, std::size_t max_degree)
    : offsets32_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      name_(std::move(name)),
      num_vertices_(offsets32_.empty() ? 0 : offsets32_.size() - 1),
      wide_(false) {
  if (offsets32_.empty()) offsets32_.push_back(0);
  bind_owned();
  set_stats(min_degree, max_degree);
}

Graph::Graph(std::vector<std::uint64_t> offsets, std::vector<Vertex> adjacency,
             std::string name, std::size_t min_degree, std::size_t max_degree)
    : offsets64_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      name_(std::move(name)),
      num_vertices_(offsets64_.empty() ? 0 : offsets64_.size() - 1),
      wide_(true) {
  offsets32_.clear();
  if (offsets64_.empty()) offsets64_.push_back(0);
  bind_owned();
  set_stats(min_degree, max_degree);
}

Graph::Graph(std::span<const std::uint32_t> offsets,
             std::span<const Vertex> adjacency, std::span<const float> weights,
             std::shared_ptr<const void> backing, std::string name)
    : off32_view_(offsets),
      adj_view_(adjacency),
      w_view_(weights),
      backing_(std::move(backing)),
      name_(std::move(name)),
      num_vertices_(offsets.empty() ? 0 : offsets.size() - 1),
      wide_(false) {
  offsets32_.clear();
  alias_cell_ = w_view_.empty() ? nullptr : std::make_shared<GraphAliasCell>();
  finish_stats();
}

Graph::Graph(std::span<const std::uint64_t> offsets,
             std::span<const Vertex> adjacency, std::span<const float> weights,
             std::shared_ptr<const void> backing, std::string name)
    : off64_view_(offsets),
      adj_view_(adjacency),
      w_view_(weights),
      backing_(std::move(backing)),
      name_(std::move(name)),
      num_vertices_(offsets.empty() ? 0 : offsets.size() - 1),
      wide_(true) {
  offsets32_.clear();
  alias_cell_ = w_view_.empty() ? nullptr : std::make_shared<GraphAliasCell>();
  finish_stats();
}

Graph::Graph(const Graph& other)
    : offsets32_(other.offsets32_),
      offsets64_(other.offsets64_),
      adjacency_(other.adjacency_),
      weights_(other.weights_),
      off32_view_(other.off32_view_),
      off64_view_(other.off64_view_),
      adj_view_(other.adj_view_),
      w_view_(other.w_view_),
      backing_(other.backing_),
      alias_cell_(other.alias_cell_),
      name_(other.name_),
      num_vertices_(other.num_vertices_),
      min_degree_(other.min_degree_),
      max_degree_(other.max_degree_),
      regularity_(other.regularity_),
      wide_(other.wide_) {
  rebind_after_copy(other);
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  Graph copy(other);
  *this = std::move(copy);
  return *this;
}

Graph::Graph(const Graph& other, std::string name) : Graph(other) {
  name_ = std::move(name);
}

void Graph::set_stats(std::size_t min_degree, std::size_t max_degree) {
  if (num_vertices_ == 0) {
    min_degree_ = max_degree_ = 0;
    regularity_ = -1;
    return;
  }
  min_degree_ = min_degree;
  max_degree_ = max_degree;
  regularity_ = (min_degree_ == max_degree_)
                    ? static_cast<int>(min_degree_)
                    : -1;
}

void Graph::finish_stats() {
  if (num_vertices_ == 0) {
    min_degree_ = max_degree_ = 0;
    regularity_ = -1;
    return;
  }
  min_degree_ = std::numeric_limits<std::size_t>::max();
  max_degree_ = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    const std::size_t d = degree(v);
    min_degree_ = std::min(min_degree_, d);
    max_degree_ = std::max(max_degree_, d);
  }
  regularity_ = (min_degree_ == max_degree_)
                    ? static_cast<int>(min_degree_)
                    : -1;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= num_vertices_ || v >= num_vertices_) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Lattice families. The parallel generators emit edges in deterministic
// vertex-range chunks through GraphBuilder::add_edges_chunked; because the
// families are deterministic (no RNG) and the builder canonicalizes
// neighbour lists, the output is bitwise-identical for every thread count
// (tests/golden_digest_test.cpp pins the .cgr bytes).
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "graph/stream.hpp"

namespace cobra::gen {

namespace {

/// Mixed-radix coordinates <-> linear index for d-dimensional lattices.
std::size_t linear_index(const std::vector<std::size_t>& coord,
                         const std::vector<std::size_t>& dims) {
  std::size_t index = 0;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    index = index * dims[d] + coord[d];
  }
  return index;
}

bool next_coordinate(std::vector<std::size_t>& coord,
                     const std::vector<std::size_t>& dims) {
  for (std::size_t d = dims.size(); d-- > 0;) {
    if (++coord[d] < dims[d]) return true;
    coord[d] = 0;
  }
  return false;
}

/// Inverse of linear_index: the coordinates of vertex `index` (last
/// dimension varies fastest) — lets a chunk start mid-lattice.
std::vector<std::size_t> coordinate_of(std::size_t index,
                                       const std::vector<std::size_t>& dims) {
  std::vector<std::size_t> coord(dims.size(), 0);
  for (std::size_t d = dims.size(); d-- > 0;) {
    coord[d] = index % dims[d];
    index /= dims[d];
  }
  return coord;
}

std::size_t checked_grid_size(const std::vector<std::size_t>& dims,
                              bool periodic) {
  if (dims.empty()) throw std::invalid_argument("grid requires >= 1 dimension");
  std::size_t n = 1;
  for (const std::size_t side : dims) {
    if (side < 2) throw std::invalid_argument("grid sides must be >= 2");
    if (periodic && side < 3) {
      // side == 2 with wraparound creates the duplicate edge (0,1)+(1,0).
      throw std::invalid_argument("torus sides must be >= 3");
    }
    n *= side;
  }
  return n;
}

std::string grid_name(const std::vector<std::size_t>& dims, bool periodic) {
  std::string param = std::string(periodic ? "" : "open,") + "dims=";
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (d) param += 'x';
    param += std::to_string(dims[d]);
  }
  return (periodic ? "torus(" : "grid(") + param + ")";
}

}  // namespace

EdgeStream grid_stream(const std::vector<std::size_t>& dims, bool periodic) {
  EdgeStream stream;
  stream.n = checked_grid_size(dims, periodic);
  stream.name = grid_name(dims, periodic);
  stream.count = stream.n;
  stream.edges_hint = stream.n * dims.size();
  stream.emit = [dims, periodic](std::uint64_t begin, std::uint64_t end,
                                 std::vector<std::pair<Vertex, Vertex>>& out) {
    out.reserve(out.size() + (end - begin) * dims.size());
    std::vector<std::size_t> coord = coordinate_of(begin, dims);
    std::vector<std::size_t> next(dims.size());
    for (std::uint64_t u = begin; u < end; ++u) {
      for (std::size_t d = 0; d < dims.size(); ++d) {
        // Only the +1 direction: the -1 edge is added by the neighbour.
        next = coord;
        if (coord[d] + 1 < dims[d]) {
          next[d] = coord[d] + 1;
        } else if (periodic) {
          next[d] = 0;
        } else {
          continue;
        }
        out.emplace_back(static_cast<Vertex>(u),
                         static_cast<Vertex>(linear_index(next, dims)));
      }
      next_coordinate(coord, dims);
    }
  };
  return stream;
}

EdgeStream torus_stream(const std::vector<std::size_t>& dims) {
  return grid_stream(dims, /*periodic=*/true);
}

EdgeStream hypercube_stream(std::size_t d) {
  if (d < 1 || d > 31) throw std::invalid_argument("hypercube requires 1 <= d <= 31");
  EdgeStream stream;
  stream.n = std::size_t{1} << d;
  stream.name = "hypercube(d=" + std::to_string(d) + ")";
  stream.count = stream.n;
  stream.edges_hint = stream.n * d / 2;
  stream.emit = [d](std::uint64_t begin, std::uint64_t end,
                    std::vector<std::pair<Vertex, Vertex>>& out) {
    out.reserve(out.size() + (end - begin) * d / 2);
    for (std::uint64_t v = begin; v < end; ++v) {
      for (std::size_t bit = 0; bit < d; ++bit) {
        const auto w = static_cast<Vertex>(v ^ (std::uint64_t{1} << bit));
        if (v < w) out.emplace_back(static_cast<Vertex>(v), w);
      }
    }
  };
  return stream;
}

Graph grid(const std::vector<std::size_t>& dims, bool periodic) {
  return build_stream(grid_stream(dims, periodic));
}

Graph torus(const std::vector<std::size_t>& dims) {
  return grid(dims, /*periodic=*/true);
}

Graph hypercube(std::size_t d) {
  return build_stream(hypercube_stream(d));
}

}  // namespace cobra::gen

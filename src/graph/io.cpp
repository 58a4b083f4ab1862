// SPDX-License-Identifier: MIT
#include "graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "graph/builder.hpp"

namespace cobra {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << "# cobra edge list: " << g.name() << "\n";
  os << "n " << g.num_vertices() << "\n";
  const bool weighted = g.is_weighted();
  char buf[32];
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex w = nbrs[i];
      if (v >= w) continue;
      os << v << ' ' << w;
      if (weighted) {
        // %.9g round-trips any float exactly, so el -> cgr -> el is
        // weight-preserving.
        std::snprintf(buf, sizeof buf, "%.9g",
                      static_cast<double>(g.weight(v, i)));
        os << ' ' << buf;
      }
      os << '\n';
    }
  }
}

Graph read_edge_list(std::istream& is, std::string name,
                     const EdgeListOptions& options) {
  std::string line;
  std::size_t n = 0;
  bool have_header = false;
  bool seen_edges = false;
  std::uint64_t max_id = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;
  // Per-edge weight column, aligned with `edges`. All-or-nothing: the
  // first line decides whether the file is weighted, and any later line
  // disagreeing is an error (a silently half-weighted graph would skew
  // every weighted draw).
  std::vector<float> edge_weights;
  bool weighted_file = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // '#' comments anywhere in the line; '%' full-line comments
    // (matrix-market style headers).
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const auto content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos || line[content] == '%') continue;
    std::istringstream ss(line);
    if (!have_header && !seen_edges && line[content] == 'n') {
      std::string tag;
      if (!(ss >> tag >> n) || tag != "n") {
        throw std::invalid_argument("edge list line " + std::to_string(line_no) +
                                    ": expected header 'n <count>'");
      }
      have_header = true;
      continue;
    }
    if (!have_header && options.require_header) {
      throw std::invalid_argument("edge list line " + std::to_string(line_no) +
                                  ": expected header 'n <count>'");
    }
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(ss >> u >> v)) {
      throw std::invalid_argument("edge list line " + std::to_string(line_no) +
                                  ": expected '<u> <v> [weight]'");
    }
    // Optional weight column; anything after it is junk.
    double weight = 0.0;
    bool have_weight = false;
    if (ss >> weight) {
      have_weight = true;
      std::string rest;
      if (ss >> rest) {
        throw std::invalid_argument("edge list line " +
                                    std::to_string(line_no) +
                                    ": unexpected trailing '" + rest + "'");
      }
      // Validate the float the Graph will actually store: a 1e-60 or
      // 1e300 double passes the double-level checks but rounds to 0 or
      // inf in float.
      const auto stored = static_cast<float>(weight);
      if (!std::isfinite(stored) || !(stored > 0.0f)) {
        throw std::invalid_argument("edge list line " +
                                    std::to_string(line_no) +
                                    ": edge weight must be positive and "
                                    "finite");
      }
    } else if (!ss.eof()) {
      std::string rest;
      ss.clear();
      ss >> rest;
      throw std::invalid_argument("edge list line " + std::to_string(line_no) +
                                  ": unexpected trailing '" + rest + "'");
    }
    if (seen_edges && have_weight != weighted_file) {
      throw std::invalid_argument(
          "edge list line " + std::to_string(line_no) + ": " +
          (have_weight
               ? "weight column on an unweighted file (earlier lines have "
                 "no weight)"
               : "missing weight column (earlier lines are weighted)"));
    }
    weighted_file = have_weight;
    seen_edges = true;
    max_id = std::max({max_id, u, v});
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
    if (have_weight) edge_weights.push_back(static_cast<float>(weight));
  }
  if (!have_header) {
    if (options.require_header) {
      throw std::invalid_argument("edge list: missing 'n <count>' header");
    }
    n = seen_edges ? static_cast<std::size_t>(max_id) + 1 : 0;
  }
  GraphBuilder builder(n);
  Graph g;
  if (options.dedup) {
    // Normalize orientation so "u v" + "v u" collapse; GraphBuilder's
    // build_dedup drops the remaining exact duplicates.
    for (auto& [u, v] : edges) {
      if (u > v) std::swap(u, v);
    }
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    g = builder.build_dedup(std::move(name));
  } else {
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    g = builder.build(std::move(name));
  }
  if (weighted_file && g.num_edges() > 0) {
    // Scatter the parsed weights into CSR alignment. Slots start at 0 (an
    // invalid weight) so with dedup the first occurrence wins — later
    // duplicates find their two slots already claimed and are skipped.
    std::vector<float> csr_weights(g.adjacency().size(), 0.0f);
    const auto slot_of = [&g](Vertex from, Vertex to) {
      const auto nbrs = g.neighbors(from);
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
      return g.offset(from) + static_cast<std::size_t>(it - nbrs.begin());
    };
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [u, v] = edges[i];
      const std::size_t su = slot_of(u, v);
      if (csr_weights[su] != 0.0f) continue;  // dedup: first weight wins
      csr_weights[su] = edge_weights[i];
      csr_weights[slot_of(v, u)] = edge_weights[i];
    }
    g.attach_weights(std::move(csr_weights));
  }
  return g;
}

}  // namespace cobra

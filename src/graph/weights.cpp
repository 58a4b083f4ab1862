// SPDX-License-Identifier: MIT
#include "graph/weights.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/builder.hpp"
#include "rand/rng.hpp"

namespace cobra::gen {

namespace {

/// Half-edge count below which spinning up the pool costs more than the
/// fill itself.
constexpr std::size_t kParallelEndpointThreshold = 1 << 16;

float weight_from_bits(WeightKind kind, std::uint64_t bits) {
  // 53-bit uniform in (0, 1]: +1 keeps both distributions strictly
  // positive before the float rounding below.
  const double u01 =
      (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
  const double w = kind == WeightKind::kUniform ? u01 : -std::log(u01);
  const auto f = static_cast<float>(w);
  // -log(u01) is 0 exactly when u01 == 1 (probability 2^-53), and a
  // subnormal double can round to 0.0f; clamp so attach_weights' positive
  // invariant holds unconditionally.
  return f > 0.0f ? f : 1e-30f;
}

}  // namespace

std::optional<WeightKind> parse_weight_kind(std::string_view name) {
  if (name == "uniform") return WeightKind::kUniform;
  if (name == "exp") return WeightKind::kExp;
  return std::nullopt;
}

float edge_weight(WeightKind kind, std::uint64_t seed, Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  // Per-edge stream, Rng::for_trial style: the 128-bit (seed, edge key)
  // input is mixed through SplitMix64's full avalanche.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  SplitMix64 sm(seed ^ (0x632be59bd9b4e019ULL * (key + 1)));
  return weight_from_bits(kind, sm.next());
}

void generate_weights(Graph& g, WeightKind kind, std::uint64_t seed) {
  const std::size_t endpoints = g.adjacency().size();
  if (endpoints == 0) return;  // an edgeless graph stays unweighted
  std::vector<float> weights(endpoints);
  using detail::kVertexChunk;
  const std::size_t n = g.num_vertices();
  const std::size_t chunks = (n + kVertexChunk - 1) / kVertexChunk;
  // Every half-edge is independent, so the result never depends on the
  // thread count of the substrate's build pool.
  detail::BuildPool pool(chunks > 1 &&
                         endpoints >= kParallelEndpointThreshold);
  pool.run_chunks(chunks, [&](std::size_t c) {
    const auto begin = static_cast<Vertex>(c * kVertexChunk);
    const auto end =
        static_cast<Vertex>(std::min<std::size_t>(n, begin + kVertexChunk));
    for (Vertex v = begin; v < end; ++v) {
      const std::size_t base = g.offset(v);
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        weights[base + i] = edge_weight(kind, seed, v, nbrs[i]);
      }
    }
  });
  g.attach_weights(std::move(weights));
}

}  // namespace cobra::gen

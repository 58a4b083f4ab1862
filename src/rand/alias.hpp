// SPDX-License-Identifier: MIT
//
// Vose alias tables: O(1) draws from an arbitrary discrete distribution
// after an O(d) build (Vose 1991, the numerically robust formulation of
// Walker's alias method).
//
// Layout: for a distribution over d outcomes, the table stores per slot a
// float acceptance probability `prob[i]` and an alias index `alias[i]`.
// A draw picks slot i uniformly, then keeps i with probability prob[i]
// and takes alias[i] otherwise — one slot pick plus one coin (O(1)),
// whatever d is. The weighted graph substrate builds one such table per
// vertex over the CSR weight array (graph/graph.hpp caches them lazily).
//
// Acceptance probabilities are stored as float: the build runs in double
// and rounds once at the end, so per-outcome probabilities are exact to
// ~1e-7 relative — far below what any chi-square on a feasible sample
// count can resolve, at half the table footprint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cobra {

/// Scratch buffers for build_alias_row — callers building many rows (the
/// per-vertex graph tables) reuse one instance to stay allocation-free in
/// steady state.
struct AliasScratch {
  std::vector<double> scaled;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
};

/// Builds one alias row over `weights` (all finite and > 0; d >= 1) into
/// prob/alias (both length d, overwritten). After the build, outcome j is
/// drawn with probability weights[j] / sum(weights) exactly (up to the one
/// float rounding of prob).
void build_alias_row(std::span<const float> weights, float* prob,
                     std::uint32_t* alias, AliasScratch& scratch);

}  // namespace cobra

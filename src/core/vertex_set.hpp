// SPDX-License-Identifier: MIT
//
// What the COBRA and BIPS round loops share: the graph arrays a round's
// neighbour draws read, and a two-level vertex bitset with its one
// ascending scan.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

/// The arrays a round's draws read, copied out of the graph once per round
/// (draws_of) so the draw loops keep them in registers instead of
/// reloading them through the graph after every store.
struct Draws {
  const std::uint32_t* off32 = nullptr;
  const std::uint64_t* off64 = nullptr;
  const Vertex* adjacency = nullptr;
  const GraphAliasTables* alias = nullptr;  ///< null unless weighted
  int regular = -1;   ///< common degree, -1 if irregular
  bool wide = false;  ///< 64-bit offsets (2m >= 2^32)

  /// v's neighbour block: returns its first entry and sets `degree` and
  /// `begin`, the block's CSR slot. A regular graph skips the offsets
  /// (begin = v * r).
  const Vertex* neighbor_block(Vertex v, std::uint32_t& degree,
                               std::size_t& begin) const noexcept {
    if (regular >= 0) {
      degree = static_cast<std::uint32_t>(regular);
      begin = static_cast<std::size_t>(v) * degree;
      return adjacency + begin;
    }
    begin = wide ? off64[v] : off32[v];
    const std::size_t end = wide ? off64[v + 1] : off32[v + 1];
    degree = static_cast<std::uint32_t>(end - begin);
    return adjacency + begin;
  }

  /// Index of the chosen neighbour within the block at CSR slot `begin`.
  /// Uniform: one Lemire draw (the historical stream). Weighted: the one
  /// shared alias-draw sequence (GraphAliasTables::draw_index).
  std::uint32_t draw_index(std::size_t begin, std::uint32_t degree,
                           Rng& rng) const noexcept {
    return alias != nullptr ? alias->draw_index(begin, degree, rng)
                            : rng.next_below32(degree);
  }
};

/// g's draw arrays; `alias` is its alias tables for weighted draws.
inline Draws draws_of(const Graph& g, const GraphAliasTables* alias) noexcept {
  return {g.offsets32().data(), g.offsets64().data(), g.adjacency().data(),
          alias, g.regularity(), g.offsets_are_wide()};
}

/// Bit v of a plain bitset (words[v / 64]).
inline bool test_bit(const std::uint64_t* words, Vertex v) noexcept {
  return ((words[v / 64] >> (v % 64)) & 1) != 0;
}

/// A vertex set over [0, n): bit v of words[v / 64], and bit i of
/// summary[i / 64] set once words[i] goes from zero to non-zero. A word's
/// summary bit is cleared only with the word itself, so the summary flags
/// exactly the non-zero words. Summary words [lo, hi) hold every set
/// summary bit, so the scan of a sparse set (a k = 1 walker) skips the
/// zero summary words around it.
struct VertexSet {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> summary;
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;

  /// Sizes a new set for [0, n).
  void assign(std::size_t n) {
    const std::size_t word_count = (n + 63) / 64;
    words.assign(word_count, 0);
    summary.assign((word_count + 63) / 64, 0);
  }

  /// Adds v; true if it was not a member.
  bool insert(Vertex v) noexcept {
    std::uint64_t& word = words[v / 64];
    if (word == 0) {
      const std::size_t j = v / 4096;
      summary[j] |= std::uint64_t{1} << (v / 64 % 64);
      lo = std::min(lo, j);
      hi = std::max(hi, j + 1);
    }
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }
};

/// The one ascending scan of a (const) VertexSet: calls f(i, word) for
/// every non-zero word i in ascending order. kDrain empties the set on the
/// way, zeroing each word and summary word once it has been read.
template <bool kDrain, typename Set, typename F>
void scan_words(Set& set, F&& f) {
  for (std::size_t j = set.lo; j < set.hi; ++j) {
    std::uint64_t flags = set.summary[j];
    if (flags == 0) continue;
    if constexpr (kDrain) set.summary[j] = 0;
    for (; flags != 0; flags &= flags - 1) {
      const std::size_t i = j * 64 + std::countr_zero(flags);
      const std::uint64_t word = set.words[i];
      if constexpr (kDrain) set.words[i] = 0;
      f(i, word);
    }
  }
  if constexpr (kDrain) {
    set.lo = SIZE_MAX;
    set.hi = 0;
  }
}

/// scan_words, calling f(v) for every member v in ascending order.
template <bool kDrain, typename Set, typename F>
void scan(Set& set, F&& f) {
  scan_words<kDrain>(set, [&](std::size_t i, std::uint64_t word) {
    for (; word != 0; word &= word - 1) {
      f(static_cast<Vertex>(i * 64 + std::countr_zero(word)));
    }
  });
}

/// Empties the set in O(words it holds).
inline void clear(VertexSet& set) {
  scan_words<true>(set, [](std::size_t, std::uint64_t) {});
}

/// Replaces every non-zero word i, in ascending order, by keep(i, word),
/// which must return a subset of its bits.
template <typename F>
void filter_words(VertexSet& set, F&& keep) {
  scan_words<false>(set, [&](std::size_t i, std::uint64_t word) {
    const std::uint64_t kept = keep(i, word);
    set.words[i] = kept;
    if (kept == 0) set.summary[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  });
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Message accounting. The COBRA process exists to bound transmissions per
// vertex per round; this collector makes that claim measurable and
// comparable across protocols (experiment E12).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cobra {

class Accounting {
 public:
  /// Starts a new round of per-round tracking. Optional: totals and the
  /// per-vertex peak are maintained regardless; without begin_round the
  /// per-round breakdown simply stays empty (the bulk Monte Carlo mode).
  void begin_round();

  /// Discards all recorded rounds; used when a process is reset for reuse.
  void reset();

  /// Records `vertices` vertices that each sent `count` messages in one
  /// round. Always feeds total() and peak_vertex_round(); feeds the
  /// current round's entry only when a round is open (see begin_round).
  /// Inline: COBRA calls it once per round (fixed k), once per frontier
  /// vertex (fractional k), and once for a whole k = 1 walk (no round
  /// open, one message in each of `vertices` rounds).
  void record_sends(std::uint64_t vertices, std::uint64_t count) noexcept {
    if (!per_round_.empty()) per_round_.back() += vertices * count;
    total_ += vertices * count;
    if (vertices != 0) peak_vertex_ = std::max(peak_vertex_, count);
  }

  /// Records `count` messages sent by one vertex: record_sends(1, count).
  void record_vertex_send(std::uint64_t count) noexcept {
    record_sends(1, count);
  }

  std::uint64_t total() const noexcept { return total_; }
  std::size_t rounds() const noexcept { return per_round_.size(); }

  /// Messages sent in round t (0-based).
  std::uint64_t round_total(std::size_t t) const { return per_round_.at(t); }

  /// Largest per-round total over the run.
  std::uint64_t peak_round_total() const noexcept;

  /// Largest count any single vertex sent in any single round.
  std::uint64_t peak_vertex_round() const noexcept { return peak_vertex_; }

  const std::vector<std::uint64_t>& per_round() const noexcept {
    return per_round_;
  }

 private:
  std::vector<std::uint64_t> per_round_;
  std::uint64_t total_ = 0;
  std::uint64_t peak_vertex_ = 0;
};

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Internals shared by the batched-engine translation units
// (sim/batched.cpp, sim/batched_cobra.cpp, sim/batched_bips.cpp). Not
// part of the public API — include sim/batched.hpp instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/graph.hpp"
#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "rand/lane_rng.hpp"
#include "sim/batched.hpp"

namespace cobra::batched_detail {

/// One lane of a LaneRngs presented with Rng's drawing surface, so shared
/// helpers templated on the generator (BernoulliSkipper) run unchanged —
/// and bit-identically — on a lane stream.
class LaneRngRef {
 public:
  LaneRngRef(LaneRngs& rngs, std::size_t lane) noexcept
      : rngs_(&rngs), lane_(lane) {}

  std::uint64_t operator()() noexcept { return rngs_->next(lane_); }
  std::uint32_t next_below32(std::uint32_t bound) noexcept {
    return rngs_->next_below32(lane_, bound);
  }
  double next_double() noexcept { return rngs_->next_double(lane_); }

 private:
  LaneRngs* rngs_;
  std::size_t lane_;
};

/// Neighbour-index draw for one lane: the uniform Lemire draw, or the
/// alias-table draw replicated from GraphAliasTables::draw_index — both
/// bit-identical to the scalar sequence.
struct LaneDraw {
  const float* prob = nullptr;
  const std::uint32_t* alias = nullptr;
  bool weighted = false;

  LaneDraw() = default;
  LaneDraw(const Graph& g, bool use_weighted) : weighted(use_weighted) {
    if (use_weighted) {
      const GraphAliasTables& tables = g.alias_tables();
      prob = tables.prob().data();
      alias = tables.alias().data();
    }
  }

  std::uint32_t index(LaneRngs& rngs, std::size_t lane, std::size_t begin,
                      std::uint32_t degree) const noexcept {
    std::uint32_t i = rngs.next_below32(lane, degree);
    if (weighted) {
      const std::size_t slot = begin + i;
      if (rngs.next_double(lane) >= prob[slot]) i = alias[slot];
    }
    return i;
  }
};

/// Mask with lanes [0, count) set.
inline std::uint64_t lane_mask(std::size_t count) noexcept {
  return count >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << count) - 1);
}

/// Per-lane scalar accumulators + curve buffers shared by every engine.
/// Allocated once at engine construction; reset per block without
/// touching the heap (curve clear() keeps capacity).
struct LaneResults {
  std::uint64_t count[kMaxBatch];
  std::uint64_t tx[kMaxBatch];
  std::uint64_t peak[kMaxBatch];
  std::size_t rounds[kMaxBatch];
  bool completed[kMaxBatch];
  std::vector<std::vector<std::size_t>> curves;

  LaneResults(std::size_t batch, bool record_curve, std::size_t max_rounds) {
    if (record_curve) {
      curves.resize(batch);
      const std::size_t hint = std::min(max_rounds + 1, std::size_t{1} << 16);
      for (auto& c : curves) c.reserve(hint);
    }
  }

  void reset_lane(std::size_t l, std::uint64_t initial_count) {
    count[l] = initial_count;
    tx[l] = 0;
    peak[l] = 0;
    rounds[l] = 0;
    completed[l] = false;
    if (!curves.empty()) {
      curves[l].clear();
      curves[l].push_back(static_cast<std::size_t>(initial_count));
    }
  }

  /// Writes the lane's SpreadResult exactly as Process::result() would
  /// (fault fields stay zero: the batched engines never attach faults).
  void emit(std::size_t l, SpreadResult& out) const {
    out = SpreadResult{};
    out.completed = completed[l];
    out.rounds = rounds[l];
    out.final_count = static_cast<std::size_t>(count[l]);
    if (!curves.empty()) out.curve = curves[l];
    out.total_transmissions = tx[l];
    out.peak_vertex_round_transmissions = peak[l];
  }

  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const auto& c : curves) bytes += c.capacity() * sizeof(std::size_t);
    return bytes;
  }
};

std::unique_ptr<BatchedEngine> make_batched_cobra(const CobraProcess& prototype,
                                                  std::size_t batch);
std::unique_ptr<BatchedEngine> make_batched_bips(const BipsProcess& prototype,
                                                 std::size_t batch);

}  // namespace cobra::batched_detail

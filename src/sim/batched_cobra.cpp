// SPDX-License-Identifier: MIT
//
// Batched COBRA: B lockstep trials over bit-plane frontiers. The scalar
// engine (core/cobra.cpp) walks its frontier C_t in ascending vertex
// order whatever the representation, so the batched pass walks the
// ascending union of the per-lane frontiers and services, at each vertex,
// every lane whose frontier bit is set — replaying each lane's draw
// sequence exactly (pushes are made in p = 0..k-1 order per vertex, and
// the fractional extra-push coin is asked before the draws, as in the
// scalar step). Like the scalar hybrid, the walk order is maintained two
// ways: a sorted support list while the union is sparse, a direct
// ascending scan of the cur_ bit-plane once it widens — sorting a
// union that approaches n every round would otherwise dominate the
// block (both walks visit the same vertices in the same order, so the
// draw sequences are unaffected).
#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/cobra.hpp"
#include "rand/sampling.hpp"
#include "sim/batched_detail.hpp"

namespace cobra::batched_detail {
namespace {

class BatchedCobra final : public BatchedEngine {
 public:
  BatchedCobra(const Graph& g, CobraOptions options, std::size_t batch)
      : BatchedEngine(batch),
        graph_(&g),
        options_(std::move(options)),
        csr_(draws_of(g, nullptr)),
        draw_(g, options_.weighted),
        rngs_(batch),
        lanes_(batch, options_.record_curves, options_.max_rounds),
        cur_(g.num_vertices(), 0),
        next_(g.num_vertices(), 0),
        visited_(g.num_vertices(), 0),
        extras_(batch, BernoulliSkipper(0.0)) {
    union_.reserve(g.num_vertices());
    next_union_.reserve(g.num_vertices());
  }

  void run_block(std::uint64_t base_seed, std::uint64_t first,
                 std::size_t count, std::span<const Vertex> starts,
                 SpreadResult* results) override {
    const std::size_t n = graph_->num_vertices();
    if (count == 0) return;
    if (count > batch_) {
      throw std::invalid_argument("batched block exceeds engine batch");
    }
    rngs_.seed_trials(base_seed, first);
    std::fill(cur_.begin(), cur_.end(), 0);
    std::fill(next_.begin(), next_.end(), 0);
    std::fill(visited_.begin(), visited_.end(), 0);
    union_.clear();

    for (std::size_t l = 0; l < count; ++l) {
      const Vertex s = starts[(first + l) % starts.size()];
      if (s >= n) throw std::invalid_argument("start vertex out of range");
      if (graph_->degree(s) == 0) {
        throw std::invalid_argument(
            "CobraProcess start must have degree >= 1 (an active isolated "
            "vertex cannot choose a neighbour)");
      }
      lanes_.reset_lane(l, 1);
      if (cur_[s] == 0) union_.push_back(s);
      cur_[s] |= std::uint64_t{1} << l;
      visited_[s] |= std::uint64_t{1} << l;
    }
    std::sort(union_.begin(), union_.end());

    std::uint64_t running = lane_mask(count);
    for (std::size_t l = 0; l < count; ++l) {
      if (lanes_.count[l] >= n || options_.max_rounds == 0) {
        lanes_.completed[l] = lanes_.count[l] >= n;
        running &= ~(std::uint64_t{1} << l);
      }
    }

    const Branching& branching = options_.branching;
    const bool fractional = branching.is_fractional();
    const unsigned k = branching.k;

    // Walk-order hybrid: a sorted support list while the union is
    // sparse, a direct ascending bit-plane scan once sorting it would
    // cost more than touching every word (the crossover is around
    // U log U comparisons vs n sequential loads).
    const std::size_t dense_threshold = n / 64 + 1;
    bool dense = union_.size() >= dense_threshold;
    std::size_t r = 0;
    std::uint32_t draw_buf[kMaxBatch];
    while (running != 0) {
      if (fractional) {
        // Fresh per-round skipper per lane, as the scalar step constructs
        // one fresh skipper per round.
        for (std::uint64_t w = running; w != 0; w &= w - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(w));
          extras_[l] = BernoulliSkipper(branching.rho);
        }
      }
      next_union_.clear();
      const auto step_vertex = [&](Vertex v, std::uint64_t word) {
        std::uint32_t degree;
        std::size_t begin;
        const Vertex* nbrs = csr_.neighbor_block(v, degree, begin);
        if (!fractional && !draw_.weighted && word == running) {
          // Every running lane pushes k times from v: k bulk draws, one
          // per push index, keep each lane's p = 0..k-1 order intact
          // (non-running lanes advance harmlessly).
          for (std::uint64_t w = word; w != 0; w &= w - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(w));
            lanes_.tx[l] += k;
            if (k > lanes_.peak[l]) lanes_.peak[l] = k;
          }
          for (unsigned p = 0; p < k; ++p) {
            rngs_.fill_below32(degree, draw_buf);
            for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
              const auto l = static_cast<std::size_t>(std::countr_zero(bits));
              apply(nbrs[draw_buf[l]], l);
            }
          }
        } else {
          for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            unsigned pushes = k;
            if (fractional) {
              LaneRngRef ref(rngs_, l);
              pushes = 1u + (extras_[l].next(ref) ? 1u : 0u);
            }
            lanes_.tx[l] += pushes;
            if (pushes > lanes_.peak[l]) lanes_.peak[l] = pushes;
            for (unsigned p = 0; p < pushes; ++p) {
              apply(nbrs[draw_.index(rngs_, l, begin, degree)], l);
            }
          }
        }
      };
      if (!dense) {
        for (const Vertex v : union_) {
          const std::uint64_t word = cur_[v] & running;
          if (word != 0) step_vertex(v, word);
        }
        // Clear the old frontier plane over its support — this also
        // retires the bits of lanes that finished in earlier rounds.
        for (const Vertex v : union_) cur_[v] = 0;
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t support = cur_[i];
          if (support == 0) continue;
          if (const std::uint64_t word = support & running; word != 0) {
            step_vertex(static_cast<Vertex>(i), word);
          }
          cur_[i] = 0;  // retire the old frontier as the scan passes
        }
      }
      cur_.swap(next_);
      union_.swap(next_union_);
      dense = union_.size() >= dense_threshold;
      if (!dense) std::sort(union_.begin(), union_.end());
      ++r;
      for (std::uint64_t w = running; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        lanes_.rounds[l] = r;
        if (!lanes_.curves.empty()) {
          lanes_.curves[l].push_back(static_cast<std::size_t>(lanes_.count[l]));
        }
        if (lanes_.count[l] >= n || r >= options_.max_rounds) {
          lanes_.completed[l] = lanes_.count[l] >= n;
          running &= ~(std::uint64_t{1} << l);
        }
      }
    }
    for (std::size_t l = 0; l < count; ++l) lanes_.emit(l, results[l]);
  }

  std::size_t workspace_bytes() const noexcept override {
    return (cur_.capacity() + next_.capacity() + visited_.capacity()) *
               sizeof(std::uint64_t) +
           (union_.capacity() + next_union_.capacity()) * sizeof(Vertex) +
           sizeof(LaneResults) + lanes_.memory_bytes();
  }

 private:
  void apply(Vertex w, std::size_t l) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (next_[w] & bit) return;  // coalesce: tokens at w merge
    if (next_[w] == 0) next_union_.push_back(w);
    next_[w] |= bit;
    if (!(visited_[w] & bit)) {
      visited_[w] |= bit;
      ++lanes_.count[l];
    }
  }

  const Graph* graph_;
  CobraOptions options_;
  Draws csr_;
  LaneDraw draw_;
  LaneRngs rngs_;
  LaneResults lanes_;
  std::vector<std::uint64_t> cur_;      ///< bit-plane: lane frontier C_t
  std::vector<std::uint64_t> next_;     ///< bit-plane: C_{t+1} under way
  std::vector<std::uint64_t> visited_;  ///< bit-plane: ever visited
  std::vector<Vertex> union_;           ///< ascending support of cur_
  std::vector<Vertex> next_union_;      ///< support of next_ (unsorted)
  std::vector<BernoulliSkipper> extras_;
};

}  // namespace

std::unique_ptr<BatchedEngine> make_batched_cobra(const CobraProcess& prototype,
                                                  std::size_t batch) {
  return std::make_unique<BatchedCobra>(prototype.graph(), prototype.options(),
                                        batch);
}

}  // namespace cobra::batched_detail

// SPDX-License-Identifier: MIT
//
// Batched engines for the rumor-spreading protocols (push, pull,
// push-pull) plus the factory and the dry-run workspace estimator. The
// COBRA and BIPS engines live in batched_cobra.cpp / batched_bips.cpp;
// all five share the conventions documented in batched.hpp: lane l of a
// block replays Rng::for_trial(base, first + l) draw for draw, active
// sets are walked in ascending vertex order, and per-lane results are
// bitwise-identical to the scalar Process path.
#include "sim/batched.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "sim/batched_detail.hpp"

namespace cobra {
namespace {

using batched_detail::lane_mask;
using batched_detail::LaneDraw;
using batched_detail::LaneResults;

void validate_single_start(const Graph& g, Vertex start, const char* proto) {
  if (start >= g.num_vertices()) {
    throw std::invalid_argument(std::string(proto) + " start out of range");
  }
  if (g.degree(start) == 0) {
    throw std::invalid_argument(std::string(proto) +
                                " start must have degree >= 1");
  }
}

// ---------------------------------------------------------------------------
// push: informed vertices each push to one uniform neighbour per round.
// Lane frontier membership lives in the informed_ bit-plane; the shared
// union_ list (ascending, vertices informed in >= 1 lane) is the walk
// order, so each lane sees exactly its own sorted sender list — the order
// PushProcess::do_step draws in.
// ---------------------------------------------------------------------------

class BatchedPush final : public BatchedEngine {
 public:
  BatchedPush(const Graph& g, PushOptions options, std::size_t batch)
      : BatchedEngine(batch),
        graph_(&g),
        options_(options),
        csr_(draws_of(g, nullptr)),
        draw_(g, options.weighted),
        rngs_(batch),
        lanes_(batch, options.record_curve, options.max_rounds),
        informed_(g.num_vertices(), 0),
        fresh_(g.num_vertices(), 0) {
    union_.reserve(g.num_vertices());
    fresh_vertices_.reserve(g.num_vertices());
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
    for (const Vertex v : union_) informed_[v] = 0;  // previous block
    union_.clear();

    for (std::size_t l = 0; l < count; ++l) {
      const Vertex s = starts[(first + l) % starts.size()];
      validate_single_start(*graph_, s, "push");
      lanes_.reset_lane(l, 1);
      if (informed_[s] == 0) union_.push_back(s);
      informed_[s] |= std::uint64_t{1} << l;
    }
    std::sort(union_.begin(), union_.end());

    std::uint64_t running = lane_mask(count);
    for (std::size_t l = 0; l < count; ++l) {
      if (lanes_.count[l] >= n || options_.max_rounds == 0) {
        lanes_.completed[l] = lanes_.count[l] >= n;
        running &= ~(std::uint64_t{1} << l);
      }
    }

    std::size_t r = 0;
    std::uint32_t draw_buf[kMaxBatch];
    while (running != 0) {
      for (std::uint64_t w = running; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        lanes_.tx[l] += lanes_.count[l];  // every informed vertex sends
      }
      fresh_vertices_.clear();
      for (const Vertex v : union_) {
        const std::uint64_t word = informed_[v] & running;
        if (word == 0) continue;
        std::uint32_t degree;
        std::size_t begin;
        const Vertex* nbrs = csr_.neighbor_block(v, degree, begin);
        if (!draw_.weighted && word == running) {
          // Every running lane sends from v: one bulk draw services the
          // block (non-running lanes advance harmlessly — their streams
          // are never read again).
          rngs_.fill_below32(degree, draw_buf);
          for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            apply(nbrs[draw_buf[l]], l);
          }
        } else {
          for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            apply(nbrs[draw_.index(rngs_, l, begin, degree)], l);
          }
        }
      }
      for (const Vertex v : union_) {
        informed_[v] |= fresh_[v];
        fresh_[v] = 0;
      }
      for (const Vertex v : fresh_vertices_) {
        informed_[v] |= fresh_[v];
        fresh_[v] = 0;
      }
      merge_fresh_vertices();
      ++r;
      for (std::uint64_t w = running; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        lanes_.peak[l] = 1;  // one message per sender per round
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
    return (informed_.capacity() + fresh_.capacity()) * sizeof(std::uint64_t) +
           (union_.capacity() + fresh_vertices_.capacity()) * sizeof(Vertex) +
           sizeof(LaneResults) + lanes_.memory_bytes();
  }

 private:
  void apply(Vertex w, std::size_t l) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    if ((informed_[w] | fresh_[w]) & bit) return;  // already informed
    if (informed_[w] == 0 && fresh_[w] == 0) fresh_vertices_.push_back(w);
    fresh_[w] |= bit;
    ++lanes_.count[l];
  }

  /// Sorts the round's newly informed vertices and merges them into the
  /// ascending union_ walk list (backward in-place, allocation-free —
  /// both vectors are reserved to n).
  void merge_fresh_vertices() {
    if (fresh_vertices_.empty()) return;
    std::sort(fresh_vertices_.begin(), fresh_vertices_.end());
    std::size_t ai = union_.size();
    std::size_t bi = fresh_vertices_.size();
    union_.resize(ai + bi);
    std::size_t oi = union_.size();
    while (bi > 0) {
      if (ai > 0 && union_[ai - 1] > fresh_vertices_[bi - 1]) {
        union_[--oi] = union_[--ai];
      } else {
        union_[--oi] = fresh_vertices_[--bi];
      }
    }
  }

  const Graph* graph_;
  PushOptions options_;
  Draws csr_;
  LaneDraw draw_;
  LaneRngs rngs_;
  LaneResults lanes_;
  std::vector<std::uint64_t> informed_;  ///< bit-plane: lane l informed v
  std::vector<std::uint64_t> fresh_;     ///< this round's new informees
  std::vector<Vertex> union_;            ///< ascending, informed in any lane
  std::vector<Vertex> fresh_vertices_;   ///< scratch: new union entries
};

// ---------------------------------------------------------------------------
// pull: uninformed vertices each pull from one uniform neighbour per
// round. The scalar engine walks every vertex ascending, so the batched
// pass does the same; a lane draws at v iff v is uninformed in that lane.
// ---------------------------------------------------------------------------

class BatchedPull final : public BatchedEngine {
 public:
  BatchedPull(const Graph& g, PullOptions options, std::size_t batch)
      : BatchedEngine(batch),
        graph_(&g),
        options_(options),
        csr_(draws_of(g, nullptr)),
        draw_(g, options.weighted),
        rngs_(batch),
        lanes_(batch, options.record_curve, options.max_rounds),
        informed_(g.num_vertices(), 0),
        fresh_(g.num_vertices(), 0) {}

  void run_block(std::uint64_t base_seed, std::uint64_t first,
                 std::size_t count, std::span<const Vertex> starts,
                 SpreadResult* results) override {
    const std::size_t n = graph_->num_vertices();
    if (count == 0) return;
    if (count > batch_) {
      throw std::invalid_argument("batched block exceeds engine batch");
    }
    rngs_.seed_trials(base_seed, first);
    std::fill(informed_.begin(), informed_.end(), 0);

    for (std::size_t l = 0; l < count; ++l) {
      const Vertex s = starts[(first + l) % starts.size()];
      validate_single_start(*graph_, s, "pull");
      lanes_.reset_lane(l, 1);
      informed_[s] |= std::uint64_t{1} << l;
    }

    std::uint64_t running = lane_mask(count);
    for (std::size_t l = 0; l < count; ++l) {
      if (lanes_.count[l] >= n || options_.max_rounds == 0) {
        lanes_.completed[l] = lanes_.count[l] >= n;
        running &= ~(std::uint64_t{1} << l);
      }
    }

    std::size_t r = 0;
    std::uint32_t draw_buf[kMaxBatch];
    std::uint64_t fresh_count[kMaxBatch];
    while (running != 0) {
      std::memset(fresh_count, 0, sizeof(fresh_count));
      for (Vertex v = 0; v < n; ++v) {
        const std::uint64_t need = running & ~informed_[v];
        if (need == 0) continue;
        std::uint32_t degree;
        std::size_t begin;
        const Vertex* nbrs = csr_.neighbor_block(v, degree, begin);
        if (degree == 0) continue;  // isolated: nothing to pull from
        if (!draw_.weighted && need == running) {
          rngs_.fill_below32(degree, draw_buf);
          for (std::uint64_t bits = need; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            ++lanes_.tx[l];
            const Vertex w = nbrs[draw_buf[l]];
            if ((informed_[w] >> l) & 1) {  // start-of-round state
              fresh_[v] |= std::uint64_t{1} << l;
              ++fresh_count[l];
            }
          }
        } else {
          for (std::uint64_t bits = need; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            ++lanes_.tx[l];
            const Vertex w = nbrs[draw_.index(rngs_, l, begin, degree)];
            if ((informed_[w] >> l) & 1) {
              fresh_[v] |= std::uint64_t{1} << l;
              ++fresh_count[l];
            }
          }
        }
      }
      for (Vertex v = 0; v < n; ++v) {
        informed_[v] |= fresh_[v];
        fresh_[v] = 0;
      }
      ++r;
      for (std::uint64_t w = running; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        lanes_.peak[l] = 1;  // one contact per vertex per round
        lanes_.count[l] += fresh_count[l];
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
    return (informed_.capacity() + fresh_.capacity()) * sizeof(std::uint64_t) +
           sizeof(LaneResults) + lanes_.memory_bytes();
  }

 private:
  const Graph* graph_;
  PullOptions options_;
  Draws csr_;
  LaneDraw draw_;
  LaneRngs rngs_;
  LaneResults lanes_;
  std::vector<std::uint64_t> informed_;
  std::vector<std::uint64_t> fresh_;
};

// ---------------------------------------------------------------------------
// push-pull: every vertex with an edge contacts one uniform neighbour per
// round, pushing if informed and pulling otherwise. All lanes draw at
// every contactor, which makes this the most bulk-friendly protocol: one
// fill_below32 per vertex per round covers the whole block.
// ---------------------------------------------------------------------------

class BatchedPushPull final : public BatchedEngine {
 public:
  BatchedPushPull(const Graph& g, PushPullOptions options, std::size_t batch)
      : BatchedEngine(batch),
        graph_(&g),
        options_(options),
        csr_(draws_of(g, nullptr)),
        draw_(g, options.weighted),
        rngs_(batch),
        lanes_(batch, options.record_curve, options.max_rounds),
        informed_(g.num_vertices(), 0),
        next_(g.num_vertices(), 0) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      contactors_ += (g.degree(v) > 0);
    }
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
    std::fill(informed_.begin(), informed_.end(), 0);
    std::fill(next_.begin(), next_.end(), 0);

    for (std::size_t l = 0; l < count; ++l) {
      const Vertex s = starts[(first + l) % starts.size()];
      validate_single_start(*graph_, s, "push_pull");
      lanes_.reset_lane(l, 1);
      informed_[s] |= std::uint64_t{1} << l;
      next_[s] |= std::uint64_t{1} << l;
    }

    std::uint64_t running = lane_mask(count);
    for (std::size_t l = 0; l < count; ++l) {
      if (lanes_.count[l] >= n || options_.max_rounds == 0) {
        lanes_.completed[l] = lanes_.count[l] >= n;
        running &= ~(std::uint64_t{1} << l);
      }
    }

    std::size_t r = 0;
    std::uint32_t draw_buf[kMaxBatch];
    std::uint64_t fresh_count[kMaxBatch];
    while (running != 0) {
      std::memset(fresh_count, 0, sizeof(fresh_count));
      for (Vertex v = 0; v < n; ++v) {
        std::uint32_t degree;
        std::size_t begin;
        const Vertex* nbrs = csr_.neighbor_block(v, degree, begin);
        if (degree == 0) continue;  // isolated: no one to contact
        if (!draw_.weighted) {
          rngs_.fill_below32(degree, draw_buf);
          for (std::uint64_t bits = running; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            apply(v, nbrs[draw_buf[l]], l, fresh_count);
          }
        } else {
          for (std::uint64_t bits = running; bits != 0; bits &= bits - 1) {
            const auto l = static_cast<std::size_t>(std::countr_zero(bits));
            apply(v, nbrs[draw_.index(rngs_, l, begin, degree)], l,
                  fresh_count);
          }
        }
      }
      // next_ is monotone (never cleared), so copying it over informed_
      // reproduces the scalar end-of-round sweep; frozen (done) lanes'
      // bits are untouched by apply() and copy over unchanged.
      std::memcpy(informed_.data(), next_.data(),
                  informed_.size() * sizeof(std::uint64_t));
      ++r;
      for (std::uint64_t w = running; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        lanes_.peak[l] = 1;  // one contact per vertex per round
        lanes_.tx[l] += contactors_;
        lanes_.count[l] += fresh_count[l];
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
    return (informed_.capacity() + next_.capacity()) * sizeof(std::uint64_t) +
           sizeof(LaneResults) + lanes_.memory_bytes();
  }

 private:
  void apply(Vertex v, Vertex w, std::size_t l, std::uint64_t* fresh_count) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (informed_[v] & bit) {  // push
      if (!(next_[w] & bit)) {
        next_[w] |= bit;
        ++fresh_count[l];
      }
    } else if (informed_[w] & bit) {  // pull
      if (!(next_[v] & bit)) {
        next_[v] |= bit;
        ++fresh_count[l];
      }
    }
  }

  const Graph* graph_;
  PushPullOptions options_;
  Draws csr_;
  LaneDraw draw_;
  LaneRngs rngs_;
  LaneResults lanes_;
  std::vector<std::uint64_t> informed_;
  std::vector<std::uint64_t> next_;
  std::uint64_t contactors_ = 0;
};

}  // namespace

std::unique_ptr<BatchedEngine> make_batched_engine(const Process& prototype,
                                                   std::size_t batch) {
  if (batch < 2 || batch > kMaxBatch) return nullptr;
  // Fault-aware rounds interleave fault-stream draws with process draws;
  // the batched replay does not model them — scalar fallback.
  if (prototype.fault_session() != nullptr) return nullptr;
  if (const auto* p = dynamic_cast<const CobraProcess*>(&prototype)) {
    return batched_detail::make_batched_cobra(*p, batch);
  }
  if (const auto* p = dynamic_cast<const BipsProcess*>(&prototype)) {
    return batched_detail::make_batched_bips(*p, batch);
  }
  if (const auto* p = dynamic_cast<const PushProcess*>(&prototype)) {
    return std::make_unique<BatchedPush>(p->graph(), p->options(), batch);
  }
  if (const auto* p = dynamic_cast<const PullProcess*>(&prototype)) {
    return std::make_unique<BatchedPull>(p->graph(), p->options(), batch);
  }
  if (const auto* p = dynamic_cast<const PushPullProcess*>(&prototype)) {
    return std::make_unique<BatchedPushPull>(p->graph(), p->options(), batch);
  }
  return nullptr;
}

}  // namespace cobra

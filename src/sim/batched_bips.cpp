// SPDX-License-Identifier: MIT
//
// Batched BIPS: B lockstep trials of the bit-infection process. BIPS is
// the hardest process to batch because the scalar engine (core/bips.cpp)
// switches per trial between a dense scan (every vertex probed, ascending)
// and a sparse list walk (only the undecided boundary probed, ascending),
// with rationed O(m) count rebuilds at the tail. The batched engine keeps
// that hybrid PER LANE: lanes currently in scan mode share one merged
// vertex-outer pass (the bit-plane win), lanes in list mode replay the
// scalar list round one lane at a time over lane-owned count/candidate
// slices. Either way a lane's probes happen at the same vertices in the
// same order with the same early exits as its scalar trial, so the
// per-lane streams — and results — are bitwise-identical.
#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "core/bips.hpp"
#include "rand/sampling.hpp"
#include "sim/batched_detail.hpp"

namespace cobra::batched_detail {
namespace {

/// Same ration as core/bips.cpp: scan -> list transitions rebuild the
/// neighbour counts (O(m)); at most this many per lane per trial.
constexpr int kMaxCountRebuilds = 4;

class BatchedBips final : public BatchedEngine {
 public:
  BatchedBips(const Graph& g, BipsOptions options, std::size_t batch)
      : BatchedEngine(batch),
        graph_(&g),
        options_(std::move(options)),
        csr_(draws_of(g, nullptr)),
        draw_(g, options_.weighted),
        rngs_(batch),
        lanes_(batch, options_.record_curve, options_.max_rounds),
        src_(g.num_vertices(), 0),
        inf_(g.num_vertices(), 0),
        next_inf_(g.num_vertices(), 0),
        cand_mark_(g.num_vertices(), 0),
        cnt_(batch * g.num_vertices(), 0),
        cand_store_(batch * g.num_vertices(), 0),
        extras_(batch, BernoulliSkipper(0.0)) {
    next_cand_.reserve(g.num_vertices());
    flips_.reserve(g.num_vertices());
    newly_.reserve(g.num_vertices());
    merge_buf_.reserve(g.num_vertices());
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
    std::fill(src_.begin(), src_.end(), 0);
    std::fill(inf_.begin(), inf_.end(), 0);
    std::fill(next_inf_.begin(), next_inf_.end(), 0);
    std::fill(cand_mark_.begin(), cand_mark_.end(), 0);
    marker_next_ = 1;
    scan_lanes_ = 0;

    for (std::size_t l = 0; l < count; ++l) {
      const Vertex s = starts[(first + l) % starts.size()];
      if (s >= n) throw std::invalid_argument("BIPS source out of range");
      const std::uint64_t bit = std::uint64_t{1} << l;
      lanes_.reset_lane(l, 1);
      src_[s] |= bit;
      inf_[s] |= bit;
      std::uint32_t* cnt = lane_counts(l);
      std::memset(cnt, 0, n * sizeof(std::uint32_t));
      for (const Vertex u : graph_->neighbors(s)) ++cnt[u];
      // Initial candidate list: non-source neighbours of the source that
      // still need processing — neighbors(s) is sorted and unique, so the
      // lane's list starts ascending.
      Vertex* cand = lane_cand(l);
      std::size_t size = 0;
      for (const Vertex u : graph_->neighbors(s)) {
        if (!(src_[u] & bit) && needs_processing(l, u)) cand[size++] = u;
      }
      cand_size_[l] = size;
      rebuilds_left_[l] = kMaxCountRebuilds;
      if (size >= n / 8) scan_lanes_ |= bit;
    }

    std::uint64_t running = lane_mask(count);
    for (std::size_t l = 0; l < count; ++l) {
      if (lanes_.count[l] >= n || options_.max_rounds == 0) {
        lanes_.completed[l] = lanes_.count[l] >= n;
        running &= ~(std::uint64_t{1} << l);
      }
    }

    const bool fractional = options_.branching.is_fractional();
    std::size_t r = 0;
    while (running != 0) {
      if (fractional) {
        for (std::uint64_t w = running; w != 0; w &= w - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(w));
          extras_[l] = BernoulliSkipper(options_.branching.rho);
        }
      }
      // A lane's mode for this round is its mode at round start; the
      // transitions below only affect the next round.
      const std::uint64_t scan_round = scan_lanes_ & running;
      if (scan_round != 0) scan_pass(scan_round, running, n);
      for (std::uint64_t w = running & ~scan_round; w != 0; w &= w - 1) {
        list_round(static_cast<std::size_t>(std::countr_zero(w)), n);
      }
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
    return (src_.capacity() + inf_.capacity() + next_inf_.capacity() +
            cand_mark_.capacity()) *
               sizeof(std::uint64_t) +
           cnt_.capacity() * sizeof(std::uint32_t) +
           cand_store_.capacity() * sizeof(Vertex) +
           (next_cand_.capacity() + flips_.capacity() + newly_.capacity() +
            merge_buf_.capacity()) *
               sizeof(Vertex) +
           sizeof(LaneResults) + lanes_.memory_bytes();
  }

 private:
  std::uint32_t* lane_counts(std::size_t l) noexcept {
    return cnt_.data() + l * graph_->num_vertices();
  }
  Vertex* lane_cand(std::size_t l) noexcept {
    return cand_store_.data() + l * graph_->num_vertices();
  }

  bool lane_infected(Vertex v, std::size_t l) const noexcept {
    return (inf_[v] >> l) & 1;
  }

  /// Scalar needs_processing on lane state: forced vertices only need a
  /// round if their current state disagrees with the forced outcome.
  bool needs_processing(std::size_t l, Vertex u) noexcept {
    const std::uint32_t c = lane_counts(l)[u];
    const bool cur = lane_infected(u, l);
    if (c == 0) return cur;
    const auto d = static_cast<std::uint32_t>(graph_->degree(u));
    if (c == d) return !cur;
    return true;
  }

  /// One probe sequence for lane l at a vertex — the scalar sample()
  /// replica: early exit on the first infected hit, the fractional extra
  /// draw asked only after a first-draw miss. `first` < 0 means no draw
  /// has been made yet; 0/1 is a pre-made first draw's outcome (the bulk
  /// path in scan_pass draws all lanes' first probes at once).
  bool sample(std::size_t l, std::uint32_t degree, const Vertex* nbrs,
              std::size_t begin, int first) {
    std::uint64_t drawn = 1;
    bool hit = first >= 0
                   ? first != 0
                   : lane_infected(nbrs[draw_.index(rngs_, l, begin, degree)],
                                   l);
    if (options_.branching.is_fractional()) {
      if (!hit) {
        LaneRngRef ref(rngs_, l);
        if (extras_[l].next(ref)) {
          drawn = 2;
          hit = lane_infected(nbrs[draw_.index(rngs_, l, begin, degree)], l);
        }
      }
    } else {
      for (unsigned i = 1; i < options_.branching.k && !hit; ++i) {
        ++drawn;
        hit = lane_infected(nbrs[draw_.index(rngs_, l, begin, degree)], l);
      }
    }
    lanes_.tx[l] += drawn;  // probes_total
    if (drawn > lanes_.peak[l]) lanes_.peak[l] = drawn;
    return hit;
  }

  /// Merged dense round for every scan-mode lane: one ascending pass over
  /// all vertices services the whole mask. Each lane's probe order is the
  /// scalar scan order (u ascending, sources skipped).
  void scan_pass(std::uint64_t scan_round, std::uint64_t running,
                 std::size_t n) {
    std::uint64_t newcount[kMaxBatch];
    std::uint64_t changed[kMaxBatch];
    std::memset(newcount, 0, sizeof(newcount));
    std::memset(changed, 0, sizeof(changed));
    std::uint32_t draw_buf[kMaxBatch];

    for (Vertex u = 0; u < n; ++u) {
      const std::uint64_t srcbits = src_[u] & scan_round;
      std::uint64_t nextword = srcbits;  // sources stay infected
      for (std::uint64_t bits = srcbits; bits != 0; bits &= bits - 1) {
        ++newcount[std::countr_zero(bits)];
      }
      const std::uint64_t todo = scan_round & ~src_[u];
      if (todo != 0) {
        std::uint32_t degree;
        std::size_t begin;
        const Vertex* nbrs = csr_.neighbor_block(u, degree, begin);
        const bool bulk = !draw_.weighted && todo == running;
        if (bulk) rngs_.fill_below32(degree, draw_buf);
        for (std::uint64_t bits = todo; bits != 0; bits &= bits - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(bits));
          const int pre =
              bulk ? (lane_infected(nbrs[draw_buf[l]], l) ? 1 : 0) : -1;
          const bool hit = sample(l, degree, nbrs, begin, pre);
          if (hit) {
            nextword |= std::uint64_t{1} << l;
            ++newcount[l];
          }
          changed[l] += (hit != lane_infected(u, l));
        }
      }
      next_inf_[u] = nextword;
    }
    // Promote the scan lanes' next state; list / finished lanes keep
    // their bits untouched.
    for (Vertex u = 0; u < n; ++u) {
      inf_[u] = (inf_[u] & ~scan_round) | (next_inf_[u] & scan_round);
    }
    for (std::uint64_t w = scan_round; w != 0; w &= w - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(w));
      lanes_.count[l] = newcount[l];  // scan mode recounts from scratch
      // Tail transition, rationed exactly like the scalar engine.
      const std::size_t healthy = n - static_cast<std::size_t>(newcount[l]);
      if (rebuilds_left_[l] > 0 && healthy * 16 < n &&
          static_cast<std::size_t>(changed[l]) * 16 < n) {
        --rebuilds_left_[l];
        rebuild_lane(l, n);
        if (cand_size_[l] >= n / 8) {
          rebuilds_left_[l] = 0;  // boundary stays wide; keep scanning
        } else {
          scan_lanes_ &= ~(std::uint64_t{1} << l);
        }
      }
    }
  }

  /// Scalar rebuild_counts_and_list on one lane's slices.
  void rebuild_lane(std::size_t l, std::size_t n) {
    std::uint32_t* cnt = lane_counts(l);
    std::memset(cnt, 0, n * sizeof(std::uint32_t));
    for (Vertex v = 0; v < n; ++v) {
      if (!lane_infected(v, l)) continue;
      for (const Vertex u : graph_->neighbors(v)) ++cnt[u];
    }
    Vertex* cand = lane_cand(l);
    std::size_t size = 0;
    const std::uint64_t bit = std::uint64_t{1} << l;
    for (Vertex u = 0; u < n; ++u) {
      if (!(src_[u] & bit) && needs_processing(l, u)) cand[size++] = u;
    }
    cand_size_[l] = size;
  }

  /// Scalar list-mode round on one lane: forced vertices flip without
  /// drawing, undecided vertices stay listed and probe; flips propagate
  /// into the lane's counts and recruit their neighbours. Shared scratch
  /// vectors are safe — list lanes run one at a time and each lane only
  /// reads/writes its own plane bit and slices.
  void list_round(std::size_t l, std::size_t n) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    const std::uint64_t marker = marker_next_++;
    std::uint32_t* cnt = lane_counts(l);
    Vertex* cand = lane_cand(l);
    const std::size_t size = cand_size_[l];
    flips_.clear();
    newly_.clear();
    next_cand_.clear();

    for (std::size_t i = 0; i < size; ++i) {
      const Vertex u = cand[i];
      const std::uint32_t c = cnt[u];
      const bool cur = lane_infected(u, l);
      if (c == 0) {
        if (cur) flips_.push_back(u);  // forced recovery
        continue;
      }
      std::uint32_t degree;
      std::size_t begin;
      const Vertex* nbrs = csr_.neighbor_block(u, degree, begin);
      if (c == degree) {
        if (!cur) flips_.push_back(u);  // forced infection
        continue;
      }
      cand_mark_[u] = marker;
      next_cand_.push_back(u);
      if (sample(l, degree, nbrs, begin, -1) != cur) flips_.push_back(u);
    }
    for (const Vertex v : flips_) {
      inf_[v] ^= bit;
      if (inf_[v] & bit) {
        ++lanes_.count[l];
      } else {
        --lanes_.count[l];
      }
    }
    for (const Vertex v : flips_) {
      const bool now = (inf_[v] & bit) != 0;
      for (const Vertex u : graph_->neighbors(v)) {
        if (now) {
          ++cnt[u];
        } else {
          --cnt[u];
        }
        if (cand_mark_[u] != marker && !(src_[u] & bit)) {
          cand_mark_[u] = marker;
          newly_.push_back(u);
        }
      }
    }
    if (!newly_.empty()) {
      std::sort(newly_.begin(), newly_.end());
      merge_buf_.clear();
      std::merge(next_cand_.begin(), next_cand_.end(), newly_.begin(),
                 newly_.end(), std::back_inserter(merge_buf_));
      next_cand_.swap(merge_buf_);
    }
    std::copy(next_cand_.begin(), next_cand_.end(), cand);
    cand_size_[l] = next_cand_.size();
    if (cand_size_[l] >= n / 8) scan_lanes_ |= bit;  // hysteresis
  }

  const Graph* graph_;
  BipsOptions options_;
  Draws csr_;
  LaneDraw draw_;
  LaneRngs rngs_;
  LaneResults lanes_;
  std::vector<std::uint64_t> src_;       ///< bit-plane: lane sources
  std::vector<std::uint64_t> inf_;       ///< bit-plane: infected now
  std::vector<std::uint64_t> next_inf_;  ///< scan-pass double buffer
  /// Shared recruit markers (scalar cand_mark_), disambiguated by a
  /// 64-bit marker unique per (lane, round) — wide enough that long
  /// campaigns (2^26 rounds x 64 lanes) cannot wrap it within a block.
  std::vector<std::uint64_t> cand_mark_;
  std::uint64_t marker_next_ = 1;
  std::vector<std::uint32_t> cnt_;    ///< lane-major infected-nbr counts
  std::vector<Vertex> cand_store_;    ///< lane-major candidate lists
  std::size_t cand_size_[kMaxBatch] = {};
  int rebuilds_left_[kMaxBatch] = {};
  std::uint64_t scan_lanes_ = 0;      ///< lanes currently in scan mode
  std::vector<Vertex> next_cand_;     ///< shared list-round scratch
  std::vector<Vertex> flips_;
  std::vector<Vertex> newly_;
  std::vector<Vertex> merge_buf_;
  std::vector<BernoulliSkipper> extras_;
};

}  // namespace

std::unique_ptr<BatchedEngine> make_batched_bips(const BipsProcess& prototype,
                                                 std::size_t batch) {
  return std::make_unique<BatchedBips>(prototype.graph(), prototype.options(),
                                       batch);
}

}  // namespace cobra::batched_detail

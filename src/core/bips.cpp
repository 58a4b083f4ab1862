// SPDX-License-Identifier: MIT
#include "core/bips.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "rand/sampling.hpp"

namespace cobra {

namespace {

constexpr int kMaxRebuilds = 4;  ///< scan -> list rebuilds per trial

/// One round's probes of A_t.
struct Sampler {
  Draws draw;
  const std::uint64_t* infected;
  Branching branching;
  BernoulliSkipper extra;

  Sampler(const Graph& g, const GraphAliasTables* alias,
          const std::uint64_t* infected_set, const Branching& b)
      : draw(draws_of(g, alias)),
        infected(infected_set),
        branching(b),
        extra(b.is_fractional() ? b.rho : 0.0) {}

  /// Whether u draws an infected neighbour, counting its probes. It draws
  /// until the first hit, at most k times (the omitted draws influence
  /// nothing but this indicator); in fractional mode the extra draw exists
  /// with probability rho, asked only when the first misses. kUniform
  /// drops the other cases' checks: a regular graph, uniform draws, fixed k.
  template <bool kUniform>
  bool probe(Vertex u, Rng& rng, std::uint64_t& probes, std::uint64_t& peak) {
    auto degree = static_cast<std::uint32_t>(draw.regular);
    std::size_t begin = static_cast<std::size_t>(u) * degree;
    const Vertex* nbrs = kUniform ? draw.adjacency + begin
                                  : draw.neighbor_block(u, degree, begin);
    const auto hits = [&] {
      const std::uint32_t i = kUniform ? rng.next_below32(degree)
                                       : draw.draw_index(begin, degree, rng);
      return test_bit(infected, nbrs[i]);
    };
    unsigned drawn = 1;
    bool hit = hits();
    if (!kUniform && branching.is_fractional()) {
      if (!hit && extra.next(rng)) {
        drawn = 2;
        hit = hits();
      }
    } else {
      for (; !hit && drawn < branching.k; ++drawn) hit = hits();
    }
    probes += drawn;
    peak = std::max<std::uint64_t>(peak, drawn);
    return hit;
  }
};

/// The bits of word i that are vertices of [0, n).
std::uint64_t vertex_mask(std::size_t i, std::size_t n) noexcept {
  const std::size_t end = n - i * 64;
  return end >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << end) - 1;
}

}  // namespace

BipsProcess::BipsProcess(const Graph& g, Vertex source, BipsOptions options)
    : BipsProcess(g, std::span<const Vertex>(&source, 1), std::move(options)) {}

BipsProcess::BipsProcess(const Graph& g, std::span<const Vertex> sources,
                         BipsOptions options)
    : graph_(&g), options_(std::move(options)) {
  const std::size_t n = g.num_vertices();
  if (n == 0) {
    throw std::invalid_argument("BipsProcess requires a non-empty graph");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("BipsProcess requires min degree >= 1");
  }
  if (!options_.branching.is_fractional() && options_.branching.k == 0) {
    throw std::invalid_argument("BipsProcess requires branching k >= 1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "BipsProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  source_.assign((n + 63) / 64, 0);  // reset() copies it into infected_
  next_.assign(source_.size(), 0);
  cand_.assign(n);
  flips_.reserve(n);  // so a trial loop's steady state allocates nothing
  reset(sources);
}

void BipsProcess::reset(Vertex source) {
  reset(std::span<const Vertex>(&source, 1));
}

void BipsProcess::reset(std::span<const Vertex> sources) {
  if (sources.empty()) {
    throw std::invalid_argument("BipsProcess requires >= 1 source");
  }
  for (const Vertex s : sources) {
    if (s >= graph_->num_vertices()) {
      throw std::invalid_argument("BIPS source out of range");
    }
  }
  round_ = 0;
  probes_total_ = 0;
  probes_peak_vertex_ = 0;
  rebuilds_left_ = kMaxRebuilds;
  clear(cand_);
  sources_.assign(sources.begin(), sources.end());
  std::sort(sources_.begin(), sources_.end());
  sources_.erase(std::unique(sources_.begin(), sources_.end()),
                 sources_.end());
  std::fill(source_.begin(), source_.end(), std::uint64_t{0});
  for (const Vertex s : sources_) {
    source_[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  infected_ = source_;
  infected_count_ = sources_.size();
  // The first candidates: the non-source neighbours of the sources, each
  // healthy with an infected neighbour. Everything else is stably healthy.
  active_ = 0;
  for (const Vertex s : sources_) active_ += add_neighbors(s);
  scan_mode_ = active_ >= graph_->num_vertices() / 8;
  if (scan_mode_) clear(cand_);
}

std::size_t BipsProcess::add_neighbors(Vertex v) {
  std::size_t fresh = 0;
  for (const Vertex u : graph_->neighbors(v)) {
    if (!is_source(u) && cand_.insert(u)) ++fresh;
  }
  return fresh;
}

template <typename F>
std::size_t BipsProcess::scan_into_next(F&& next_state) {
  const std::uint64_t* source = source_.data();
  const std::uint64_t* infected = infected_.data();
  std::uint64_t* next = next_.data();
  const std::size_t n = graph_->num_vertices();
  std::size_t count = 0;
  std::size_t changed = 0;
  for (std::size_t i = 0; i * 64 < n; ++i) {
    std::uint64_t out = source[i];  // sources draw nothing
    for (std::uint64_t todo = ~out & vertex_mask(i, n); todo != 0;
         todo &= todo - 1) {
      const int b = std::countr_zero(todo);
      const bool state = next_state(static_cast<Vertex>(i * 64 + b),
                                    ((infected[i] >> b) & 1) != 0);
      out |= std::uint64_t{state} << b;
    }
    next[i] = out;
    count += static_cast<std::size_t>(std::popcount(out));
    changed += static_cast<std::size_t>(std::popcount(out ^ infected[i]));
  }
  infected_.swap(next_);
  infected_count_ = count;
  active_ = n - sources_.size();
  return changed;
}

std::size_t BipsProcess::step(Rng& rng) {
  const std::size_t n = graph_->num_vertices();
  if (!scan_mode_) {
    list_round(rng);
    scan_mode_ = active_ >= n / 8;
    if (scan_mode_) clear(cand_);
  } else {
    // Locals, so the loop keeps the RNG and the counters in registers.
    Rng local = rng;
    Sampler sample(*graph_, alias_, infected_.data(), options_.branching);
    std::uint64_t probes = 0;
    std::uint64_t peak = probes_peak_vertex_;
    const bool uniform = graph_->is_regular() && alias_ == nullptr &&
                         !options_.branching.is_fractional();
    const std::size_t changed =
        uniform ? scan_into_next([&](Vertex u, bool) {
                    return sample.probe<true>(u, local, probes, peak);
                  })
                : scan_into_next([&](Vertex u, bool) {
                    return sample.probe<false>(u, local, probes, peak);
                  });
    rng = local;
    probes_total_ += probes;
    probes_peak_vertex_ = peak;
    // Tail transition: nearly saturated and quiet. If the rebuilt
    // candidates are structurally many (complete-graph-like), stop trying.
    if (rebuilds_left_ > 0 && (n - infected_count_) * 16 < n &&
        changed * 16 < n) {
      --rebuilds_left_;
      const std::size_t candidates = rebuild_candidates();
      if (candidates >= n / 8) {
        rebuilds_left_ = 0;
        clear(cand_);
      } else {
        scan_mode_ = false;
        active_ = candidates;
      }
    }
  }
  ++round_;
  return infected_count_;
}

void BipsProcess::list_round(Rng& rng) {
  // Evaluate exactly the candidates, in ascending order: a forced vertex
  // draws nothing (the skip is distribution-preserving, like the early
  // exit) and leaves the set; an undecided one draws and stays.
  Rng local = rng;
  Sampler sample(*graph_, alias_, infected_.data(), options_.branching);
  std::uint64_t probes = 0;
  std::uint64_t peak = probes_peak_vertex_;
  const std::uint64_t* infected = infected_.data();
  std::size_t kept = 0;
  flips_.clear();
  filter_words(cand_, [&](std::size_t i, std::uint64_t word) {
    std::uint64_t undecided = 0;
    for (; word != 0; word &= word - 1) {
      const int b = std::countr_zero(word);
      const auto u = static_cast<Vertex>(i * 64 + b);
      const bool current = ((infected[i] >> b) & 1) != 0;
      std::uint32_t degree = 0;
      std::size_t begin = 0;
      const Vertex* nbrs = sample.draw.neighbor_block(u, degree, begin);
      // Undecided as soon as a neighbour differs from the first one.
      const bool first = test_bit(infected, nbrs[0]);
      std::uint32_t j = 1;
      while (j < degree && test_bit(infected, nbrs[j]) == first) ++j;
      if (j == degree) {  // forced to `first`
        if (first != current) flips_.push_back(u);
        continue;
      }
      undecided |= std::uint64_t{1} << b;
      ++kept;
      const bool hit = sample.probe<false>(u, local, probes, peak);
      if (hit != current) flips_.push_back(u);
    }
    return undecided;
  });
  rng = local;
  probes_total_ += probes;
  probes_peak_vertex_ = peak;
  for (const Vertex v : flips_) {
    infected_[v / 64] ^= std::uint64_t{1} << (v % 64);
    infected_count_ =
        is_infected(v) ? infected_count_ + 1 : infected_count_ - 1;
  }
  // Every neighbour of a flipped vertex may have changed class. A recruit
  // that is stably forced costs one classification next round and leaves.
  for (const Vertex v : flips_) kept += add_neighbors(v);
  active_ = kept;
}

std::size_t BipsProcess::rebuild_candidates() {
  // A healthy vertex is a candidate iff it has an infected neighbour, an
  // infected non-source one iff it has a healthy neighbour (sources are
  // never healthy), so the healthy vertices' neighbourhoods hold them all.
  const std::uint64_t* infected = infected_.data();
  const std::size_t n = graph_->num_vertices();
  std::size_t count = 0;
  for (std::size_t i = 0; i < infected_.size(); ++i) {
    for (std::uint64_t healthy = ~infected[i] & vertex_mask(i, n);
         healthy != 0; healthy &= healthy - 1) {
      const auto h = static_cast<Vertex>(i * 64 + std::countr_zero(healthy));
      bool exposed = false;
      for (const Vertex w : graph_->neighbors(h)) {
        if (!test_bit(infected, w)) continue;
        exposed = true;
        if (!is_source(w) && cand_.insert(w)) ++count;
      }
      if (exposed && cand_.insert(h)) ++count;
    }
  }
  return count;
}

void BipsProcess::step_faulty(Rng& rng) {
  FaultSession& fs = *faults();
  const Branching& branching = options_.branching;
  const Draws draw = draws_of(*graph_, alias_);
  const std::uint64_t* infected = infected_.data();
  std::uint64_t peak = probes_peak_vertex_;
  scan_into_next([&](Vertex u, bool current) {
    if (!fs.can_receive(u)) return current;  // down or asleep: frozen
    const unsigned draws =
        branching.is_fractional()
            ? 1u + (rng.bernoulli(branching.rho) ? 1u : 0u)
            : branching.k;
    std::uint32_t degree = 0;
    std::size_t begin = 0;
    const Vertex* nbrs = draw.neighbor_block(u, degree, begin);
    bool any_delivered = false;
    bool hit = false;
    for (unsigned p = 0; p < draws; ++p) {
      const Vertex w = nbrs[draw.draw_index(begin, degree, rng)];
      if (fs.transmit(u, p, w)) {
        any_delivered = true;
        hit = hit || test_bit(infected, w);
      }
    }
    probes_total_ += draws;
    peak = std::max<std::uint64_t>(peak, draws);
    return any_delivered ? hit : current;
  });
  // The candidates are not kept through a fault round (its probes can be
  // lost, so forced outcomes do not hold); scan until the next reset.
  scan_mode_ = true;
  clear(cand_);
  probes_peak_vertex_ = peak;
  ++round_;
}

namespace {

SpreadResult run_to_full_infection(BipsProcess& process, Rng& rng) {
  const BipsOptions& options = process.options();
  SpreadResult result;
  if (options.record_curve) result.curve.push_back(process.infected_count());
  while (!process.fully_infected() && process.round() < options.max_rounds) {
    process.step(rng);
    if (options.record_curve) result.curve.push_back(process.infected_count());
  }
  result.completed = process.fully_infected();
  result.rounds = process.round();
  result.final_count = process.infected_count();
  result.total_transmissions = process.total_probes();
  result.peak_vertex_round_transmissions = process.peak_vertex_round_probes();
  return result;
}

}  // namespace

SpreadResult run_bips_infection(const Graph& g, Vertex source,
                                BipsOptions options, Rng& rng) {
  BipsProcess process(g, source, options);
  return run_to_full_infection(process, rng);
}

SpreadResult run_bips_infection(BipsProcess& process, Vertex source, Rng& rng) {
  process.reset(source);
  return run_to_full_infection(process, rng);
}

bool bips_membership_after(const Graph& g, Vertex source, Vertex probe,
                           std::size_t t, BipsOptions options, Rng& rng) {
  options.record_curve = false;
  BipsProcess process(g, source, options);
  for (std::size_t i = 0; i < t; ++i) process.step(rng);
  return process.is_infected(probe);
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Pseudo-random number substrate for the cobra library.
//
// Monte Carlo experiments in this repository need (a) speed — a COBRA/BIPS
// round draws O(k n) random neighbours, (b) reproducibility — every trial is
// addressed by a (base seed, trial index) pair, and (c) independent parallel
// streams — the trial runner hands each worker its own statistically
// independent generator. std::mt19937_64 satisfies none of these well, so we
// implement xoshiro256++ (Blackman & Vigna, 2019) seeded via SplitMix64;
// each trial's stream is seeded from (base seed, trial index) by
// Rng::for_trial.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace cobra {

/// SplitMix64 — a tiny, high-quality 64-bit generator used to expand a
/// single seed into the 256-bit state of Xoshiro256. Also usable standalone
/// (it is a bijective mixing function, so distinct seeds give distinct
/// streams).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ — the library's workhorse generator.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// plugged into <random> distributions where convenient, but the member
/// helpers (next_below, next_double, bernoulli) are preferred: they are
/// branch-light and deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by iterating SplitMix64, per Vigna's
  /// recommendation. Any 64-bit seed (including 0) is valid.
  explicit Rng(std::uint64_t seed = 0x9d1a5e2b8f3c47d6ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  /// Convenience: generator for trial `index` of a run with base seed
  /// `base`. Distinct (base, index) pairs produce independent streams
  /// because the 128-bit input is mixed through SplitMix64 twice.
  static Rng for_trial(std::uint64_t base, std::uint64_t index) noexcept {
    SplitMix64 sm(base ^ (0x632be59bd9b4e019ULL * (index + 1)));
    return Rng(sm.next());
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly distributed bits.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection
  /// method. Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Fast path for 32-bit bounds (vertex degrees always fit): Lemire's
  /// method on the high 32 bits of one 64-bit draw, so the hot loop costs a
  /// single 32x32 -> 64-bit multiply instead of the 128-bit product of
  /// next_below. Exactly unbiased (same rejection rule, 32-bit threshold).
  /// Precondition: bound > 0.
  std::uint32_t next_below32(std::uint32_t bound) noexcept {
    auto x = static_cast<std::uint32_t>((*this)() >> 32);
    std::uint64_t m = static_cast<std::uint64_t>(x) * bound;
    auto low = static_cast<std::uint32_t>(m);
    if (low < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (low < threshold) {
        x = static_cast<std::uint32_t>((*this)() >> 32);
        m = static_cast<std::uint64_t>(x) * bound;
        low = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) trial; p outside [0,1] saturates to always-false/true.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Exposes state for serialization / tests.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cobra

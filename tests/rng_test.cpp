// SPDX-License-Identifier: MIT
//
// Unit tests for the RNG substrate: determinism, range correctness and
// stream independence.
#include "rand/rng.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace cobra {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DistinctSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  // The all-zero xoshiro state is the lone fixed point; SplitMix64 seeding
  // must avoid it.
  bool any_nonzero = false;
  for (int i = 0; i < 16; ++i) any_nonzero |= (rng() != 0);
  EXPECT_TRUE(any_nonzero);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBound)];
  // Each bucket expects 10000; allow +-5% (about 15 sigma).
  for (const int count : counts) {
    EXPECT_GT(count, 9500);
    EXPECT_LT(count, 10500);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  constexpr int kDraws = 100000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, BernoulliSaturates) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ForTrialGivesIndependentStreams) {
  Rng a = Rng::for_trial(1000, 0);
  Rng b = Rng::for_trial(1000, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForTrialIsReproducible) {
  Rng a = Rng::for_trial(1000, 5);
  Rng b = Rng::for_trial(1000, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace cobra

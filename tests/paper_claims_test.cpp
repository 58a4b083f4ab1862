// SPDX-License-Identifier: MIT
//
// The paper's cover-time claims on connected random 8-regular graphs, at
// fixed seeds (so the test is deterministic and cannot flake):
//  * Theorem 1's O(log n) expander cover: COBRA k = 2 mean rounds / ln n
//    stays within 10% of perfbench's reference value (2.376, recorded in
//    perfbench/reference.json) at every n;
//  * k = 1 is a simple random walk, whose cover time on random r-regular
//    graphs is ~ (r-1)/(r-2) n ln n (Cooper & Frieze 2005; 7/6 at r = 8):
//    cover / (n ln n) lies in [1.10, 1.40] and does not grow with n beyond
//    its standard error.
// Both catch a wrong result that golden digests re-recorded on purpose
// would let through.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "stats/online.hpp"

namespace cobra {
namespace {

constexpr std::size_t kGraphs = 4;
constexpr std::size_t kTrialsPerGraph = 16;
const std::vector<std::size_t> kSizes = {1u << 8, 1u << 10, 1u << 12,
                                         1u << 14};

/// Cover rounds of kGraphs x kTrialsPerGraph COBRA trials at size n.
OnlineStats cover_rounds(std::size_t n, unsigned k) {
  CobraOptions options;
  options.branching = Branching::fixed(k);
  options.record_curves = false;
  OnlineStats rounds;
  for (std::size_t graph = 0; graph < kGraphs; ++graph) {
    Rng graph_rng(1000 * n + graph);
    const Graph g = gen::connected_random_regular(n, 8, graph_rng);
    CobraProcess process(g, 0, options);
    for (std::size_t trial = 0; trial < kTrialsPerGraph; ++trial) {
      const auto start = static_cast<Vertex>(trial * 131 % n);
      const SpreadResult result =
          process.run(Rng(7919 * graph + trial + k), start);
      EXPECT_TRUE(result.completed) << "n = " << n << ", k = " << k;
      rounds.add(static_cast<double>(result.rounds));
    }
  }
  return rounds;
}

TEST(PaperClaims, CobraK2CoverIsLogarithmicOnExpanders) {
  constexpr double kReference = 2.376;  // perfbench/reference.json
  for (const std::size_t n : kSizes) {
    const double ratio = cover_rounds(n, 2).mean() / std::log(n);
    EXPECT_NEAR(ratio, kReference, 0.1 * kReference) << "n = " << n;
  }
}

TEST(PaperClaims, CobraK1CoverIsNLogNAndDoesNotGrowFaster) {
  double previous = 0.0;
  double previous_se = 0.0;
  for (const std::size_t n : kSizes) {
    const OnlineStats rounds = cover_rounds(n, 1);
    const double scale = static_cast<double>(n) * std::log(n);
    const double ratio = rounds.mean() / scale;
    const double se = rounds.stddev() /
                      std::sqrt(static_cast<double>(rounds.count())) / scale;
    EXPECT_GE(ratio, 1.10) << "n = " << n;
    EXPECT_LE(ratio, 1.40) << "n = " << n;
    if (previous > 0.0) {
      EXPECT_LE(ratio - previous, std::hypot(se, previous_se))
          << "n = " << n << ": cover / (n ln n) grew from " << previous
          << " to " << ratio;
    }
    previous = ratio;
    previous_se = se;
  }
}

}  // namespace
}  // namespace cobra

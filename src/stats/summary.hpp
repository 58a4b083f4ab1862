// SPDX-License-Identifier: MIT
//
// Five-number-plus summary of a Monte Carlo sample. The experiments report
// mean (expectation results, e.g. COV(G)) alongside p90/p99/max (the
// paper's w.h.p. statements surface as concentrated upper quantiles).
#pragma once

#include <cstddef>
#include <span>

namespace cobra {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Throws std::invalid_argument on an empty sample.
Summary summarize(std::span<const double> values);

}  // namespace cobra

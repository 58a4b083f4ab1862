// SPDX-License-Identifier: MIT
#include "stats/summary.hpp"

#include <stdexcept>

#include "stats/online.hpp"
#include "stats/quantile.hpp"

namespace cobra {

Summary summarize(std::span<const double> values) {
  if (values.empty()) {
    throw std::invalid_argument("summarize of empty sample");
  }
  OnlineStats online;
  for (const double value : values) online.add(value);
  Summary summary;
  summary.count = online.count();
  summary.mean = online.mean();
  summary.stddev = online.stddev();
  summary.min = online.min();
  summary.max = online.max();
  summary.median = quantile(values, 0.5);
  summary.p90 = quantile(values, 0.9);
  summary.p99 = quantile(values, 0.99);
  return summary;
}

}  // namespace cobra

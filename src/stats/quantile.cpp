// SPDX-License-Identifier: MIT
#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cobra {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of empty sample");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile requires q in [0,1]");
  }
  // Type-7: h = (n-1) q, interpolate between floor and ceil order stats.
  const double h = static_cast<double>(values.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double v_lo = values[lo];
  if (hi == lo) return v_lo;
  const double v_hi =
      *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        values.end());
  return v_lo + (h - static_cast<double>(lo)) * (v_hi - v_lo);
}

double quantile(std::span<const double> values, double q) {
  return quantile(std::vector<double>(values.begin(), values.end()), q);
}

}  // namespace cobra

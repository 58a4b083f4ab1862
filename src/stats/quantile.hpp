// SPDX-License-Identifier: MIT
//
// Exact quantiles with linear interpolation (type-7, the R/NumPy default).
#pragma once

#include <span>
#include <vector>

namespace cobra {

/// q-quantile of `values` (q in [0, 1]); takes a copy because selection is
/// destructive. Throws std::invalid_argument on empty input or bad q.
double quantile(std::vector<double> values, double q);

/// Convenience overload on spans (copies internally).
double quantile(std::span<const double> values, double q);

}  // namespace cobra

// SPDX-License-Identifier: MIT
#include "core/accounting.hpp"

#include <algorithm>

namespace cobra {

void Accounting::begin_round() { per_round_.push_back(0); }

void Accounting::reset() {
  per_round_.clear();
  total_ = 0;
  peak_vertex_ = 0;
}

std::uint64_t Accounting::peak_round_total() const noexcept {
  std::uint64_t peak = 0;
  for (const std::uint64_t value : per_round_) peak = std::max(peak, value);
  return peak;
}

}  // namespace cobra

// SPDX-License-Identifier: MIT
#include "rand/rng.hpp"

namespace cobra {

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire (2019): multiply a 64-bit draw by the bound and keep the high
  // word; reject the short "overhanging" low-word range to remove bias.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace cobra

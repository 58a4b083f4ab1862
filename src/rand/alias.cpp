// SPDX-License-Identifier: MIT
#include "rand/alias.hpp"

namespace cobra {

void build_alias_row(std::span<const float> weights, float* prob,
                     std::uint32_t* alias, AliasScratch& scratch) {
  const std::size_t d = weights.size();
  if (d == 1) {
    prob[0] = 1.0f;
    alias[0] = 0;
    return;
  }
  // Scale so the mean bucket mass is 1: scaled[i] = w[i] * d / W. The sum
  // runs in double, so float weights cannot lose mass to cancellation.
  double total = 0.0;
  for (const float w : weights) total += w;
  scratch.scaled.resize(d);
  scratch.small.clear();
  scratch.large.clear();
  const double scale = static_cast<double>(d) / total;
  for (std::size_t i = 0; i < d; ++i) {
    const double s = weights[i] * scale;
    scratch.scaled[i] = s;
    if (s < 1.0) {
      scratch.small.push_back(static_cast<std::uint32_t>(i));
    } else {
      scratch.large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Vose pairing: each underfull slot is topped up by exactly one
  // overfull outcome; the donor's residue re-enters whichever stack its
  // remaining mass puts it in.
  while (!scratch.small.empty() && !scratch.large.empty()) {
    const std::uint32_t s = scratch.small.back();
    scratch.small.pop_back();
    const std::uint32_t l = scratch.large.back();
    scratch.large.pop_back();
    prob[s] = static_cast<float>(scratch.scaled[s]);
    alias[s] = l;
    scratch.scaled[l] -= 1.0 - scratch.scaled[s];
    if (scratch.scaled[l] < 1.0) {
      scratch.small.push_back(l);
    } else {
      scratch.large.push_back(l);
    }
  }
  // Leftovers have mass 1 up to rounding; saturate them.
  for (const std::uint32_t i : scratch.large) {
    prob[i] = 1.0f;
    alias[i] = i;
  }
  for (const std::uint32_t i : scratch.small) {
    prob[i] = 1.0f;
    alias[i] = i;
  }
}

}  // namespace cobra

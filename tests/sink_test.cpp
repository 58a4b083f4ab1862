// SPDX-License-Identifier: MIT
//
// format_double against the loop it replaced — every precision 1..17 tried
// with snprintf and parsed back with strtod, the first round-trip kept —
// kept here as the oracle, over a seeded corpus: raw bit patterns (NaN,
// infinities and subnormals included), uniform values, every power of two
// with its neighbours (the only doubles whose round-trip interval is
// lopsided), and the ratios campaign summaries print.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "scenario/sink.hpp"

namespace cobra::scenario {
namespace {

std::string oracle_format_double(double value) {
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::vector<double> corpus() {
  std::vector<double> values = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1e15,
      -1e15,
      1e15 + 0.5,
      123456789012345.6,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (int e = -1074; e <= 1023; ++e) {
    const double power = std::ldexp(1.0, e);
    for (const double v : {power, std::nextafter(power, 0.0),
                           std::nextafter(power, INFINITY)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  std::mt19937_64 rng(20261017);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 40000; ++i) values.push_back(unit(rng));
  // Means, standard deviations and PDRs of small counts, as the sinks see.
  for (int den = 1; den <= 64; ++den) {
    for (int num = 0; num <= 4 * den; ++num) {
      values.push_back(static_cast<double>(num) / den);
      values.push_back(std::sqrt(static_cast<double>(num) / den));
    }
  }
  return values;
}

TEST(FormatDouble, MatchesTheRoundTripLoop) {
  std::size_t checked = 0;
  for (const double value : corpus()) {
    ASSERT_EQ(format_double(value), oracle_format_double(value))
        << "bits of the value: " << std::hexfloat << value;
    ++checked;
  }
  EXPECT_GT(checked, 100000u);
}

TEST(FormatDouble, RoundTripsAndIsShortest) {
  for (const double value : {0.1, 1.0 / 3.0, 2.5e-300, 0x1p-1017,
                             0x1p-1007, 6.02214076e23}) {
    const std::string text = format_double(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(21.5), "21.5");
  EXPECT_EQ(format_double(42.0), "42");
  // A power of two whose correctly rounded 16-digit value falls outside its
  // lopsided round-trip interval: a 16-digit string would round-trip, but
  // the loop (and so format_double) prints the correctly rounded 17 digits.
  EXPECT_EQ(format_double(0x1p-1017), "7.1202363472230444e-307");
}

}  // namespace
}  // namespace cobra::scenario

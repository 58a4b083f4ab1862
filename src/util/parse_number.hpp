// SPDX-License-Identifier: MIT
//
// The one string-to-number rule of every number the program reads —
// command-line flags (util/flags.hpp), registry and process parameters
// (util/param_reader.hpp), scenario spec keys, seeds and ranges, ports:
// the whole text must be consumed, and a double must be finite. Each
// caller reports a failure in its own error type, naming its key or flag.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>

namespace cobra {

/// Strict full-consumption integer parse; false on malformed or partial
/// input.
inline bool parse_integer(std::string_view text, std::int64_t& value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Strict full-consumption double parse; also false on "nan" and "inf",
/// which std::stod accepts and which would slip through every range check
/// written with < and >.
inline bool parse_number(const std::string& text, double& value) {
  try {
    std::size_t used = 0;
    value = std::stod(text, &used);
    return used == text.size() && std::isfinite(value);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace cobra

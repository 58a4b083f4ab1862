// SPDX-License-Identifier: MIT
//
// Shared reader for declaration-ordered string (key, value) parameter
// lists — the shape both scenario specs and the process factory resolve
// to. Tracks which keys were consumed so finish() can reject leftovers
// loudly (typo protection: a mistyped key names itself instead of being
// ignored), and parses numbers with strict full-consumption semantics.
// Templated on the exception type so each layer reports its own error
// class (SpecError for graph families, ProcessFactoryError for
// processes) with identical message formats.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cobra {

template <typename Error>
class ParamReader {
 public:
  using Params = std::vector<std::pair<std::string, std::string>>;

  ParamReader(const Params& params, std::string context)
      : params_(params),
        context_(std::move(context)),
        touched_(params.size(), false) {}

  /// True if `key` is present; marks it consumed either way.
  bool has(std::string_view key) { return lookup(key) != nullptr; }

  std::string get(std::string_view key, std::string_view fallback) {
    const std::string* v = lookup(key);
    return v != nullptr ? *v : std::string(fallback);
  }

  std::string require(std::string_view key) {
    const std::string* v = lookup(key);
    if (v == nullptr) {
      throw Error(context_ + ": missing required parameter '" +
                  std::string(key) + "'");
    }
    return *v;
  }

  std::int64_t get_int(std::string_view key, std::int64_t fallback) {
    const std::string* v = lookup(key);
    return v == nullptr ? fallback : to_int(key, *v);
  }

  std::int64_t require_int(std::string_view key) {
    return to_int(key, require(key));
  }

  std::size_t require_size(std::string_view key) {
    const std::int64_t v = require_int(key);
    if (v < 0) {
      throw Error(context_ + ": parameter '" + std::string(key) +
                  "' must be non-negative");
    }
    return static_cast<std::size_t>(v);
  }

  double get_double(std::string_view key, double fallback) {
    const std::string* v = lookup(key);
    return v == nullptr ? fallback : to_double(key, *v);
  }

  double require_double(std::string_view key) {
    return to_double(key, require(key));
  }

  /// 'x'-separated positive integers, e.g. dims = 32x32, offsets = 1x2x5.
  std::vector<std::size_t> require_size_list(std::string_view key) {
    const std::string text = require(key);
    std::vector<std::size_t> out;
    std::size_t begin = 0;
    while (begin <= text.size()) {
      const std::size_t sep = text.find('x', begin);
      const std::size_t end = sep == std::string::npos ? text.size() : sep;
      out.push_back(static_cast<std::size_t>(
          to_int(key, text.substr(begin, end - begin))));
      if (sep == std::string::npos) break;
      begin = sep + 1;
    }
    return out;
  }

  /// Throws if any parameter was never consumed (typo protection).
  void finish() const {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (!touched_[i]) {
        throw Error(context_ + ": unknown parameter '" + params_[i].first +
                    "'");
      }
    }
  }

 private:
  const std::string* lookup(std::string_view key) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (params_[i].first == key) {
        touched_[i] = true;
        return &params_[i].second;
      }
    }
    return nullptr;
  }

  std::int64_t to_int(std::string_view key, const std::string& text) const {
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      throw Error(context_ + ": parameter '" + std::string(key) +
                  "' expects an integer, got '" + text + "'");
    }
    return value;
  }

  double to_double(std::string_view key, const std::string& text) const {
    double value = 0.0;
    std::size_t used = 0;
    try {
      value = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (text.empty() || used != text.size()) {
      throw Error(context_ + ": parameter '" + std::string(key) +
                  "' expects a number, got '" + text + "'");
    }
    // std::stod accepts "nan" and "inf"; no parameter means either, and a
    // NaN would slip through every range check written with < and >.
    if (!std::isfinite(value)) {
      throw Error(context_ + ": parameter '" + std::string(key) +
                  "' expects a finite number, got '" + text + "'");
    }
    return value;
  }

  const Params& params_;
  std::string context_;
  std::vector<bool> touched_;
};

}  // namespace cobra

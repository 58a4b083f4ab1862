// SPDX-License-Identifier: MIT
//
// A minimal command-line flag parser for the experiment harnesses and
// examples. Supports --name=value, --name value, and bare boolean --name.
// Unknown flags are collected so binaries can warn instead of crashing
// (google-benchmark passes its own flags through the same argv).
//
// Every get*/has call is additionally recorded as a FlagQuery (name, type,
// default), so a binary can generate its own --help text from the flags it
// actually consults — see print_help and bench/exp_common.hpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cobra {

/// One recorded flag lookup: the flag's name, its value kind ("flag",
/// "string", "int", "number", "bool"), and the default used when absent.
struct FlagQuery {
  std::string name;
  std::string kind;
  std::string fallback;
};

class Flags {
 public:
  /// Parses argv. Arguments not starting with "--" are kept as positionals.
  Flags(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(std::string_view name) const;

  /// Value lookups with defaults. get_int/get_double throw
  /// std::invalid_argument on malformed numbers, and get_double on nan and
  /// inf too (util/parse_number.hpp; fail loudly, per I.10).
  std::string get(std::string_view name, std::string_view fallback) const;
  std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  double get_double(std::string_view name, double fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Names seen on the command line but never queried via get*/has.
  /// Call at the end of main to warn about typos.
  std::vector<std::string> unconsumed() const;

  /// Prints "warning: unrecognized flag --x" lines for unconsumed flags.
  void warn_unconsumed(std::ostream& os) const;

  /// True if --help was passed (consumes it).
  bool help_requested() const { return has("help"); }

  /// Every flag this binary queried so far, in first-query order.
  const std::vector<FlagQuery>& queried() const { return queried_; }

  /// Renders the queried flags as --help text, one line per flag. Callers
  /// that query flags lazily should invoke this after their run (see
  /// ExperimentEnv::finish); callers with a static flag set can query
  /// everything up front and print immediately.
  void print_help(std::ostream& os) const;

 private:
  void record_query(std::string_view name, std::string_view kind,
                    std::string fallback) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> consumed_;
  mutable std::vector<FlagQuery> queried_;
  std::vector<std::string> positionals_;
};

}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Declarative scenario specs: the plain-text format that drives experiment
// campaigns (parsed here, planned in campaign.hpp, executed by the
// scenario_runner CLI). No external dependencies — the grammar is plain
// `key = value` lines grouped under `[section]` headers:
//
//   # comment (also mid-line, stripped from '#')
//   [campaign]
//   name = cover_vs_n
//   trials = 20
//   base_seed = 20260612
//
//   [graph]
//   family = random_regular
//   n = 256..8192 *2        # sweep axis: geometric range
//   r = 8
//
//   [process]
//   name = cobra
//   k = 2
//
// Values may be sweep expressions (expanded by expand_values):
//   scalar          "8"
//   list            "0.05, 0.1, 0.2"
//   geometric range "256..8192 *2"   (lo, lo*m, ... while <= hi)
//   arithmetic range"1..9 +2"        ("lo..hi" alone steps by +1)
//
// Every malformed line fails loudly with "<source>:<line>: ..." so specs
// are debuggable without reading this code.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cobra::scenario {

/// All scenario-subsystem errors (parse, plan, registry, journal) throw
/// this; messages carry source/line context where available.
struct SpecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One `key = value` line; `line` is 1-based in the source (0 for entries
/// added programmatically via ScenarioSpec::set).
struct SpecEntry {
  std::string key;
  std::string value;
  std::size_t line = 0;
};

/// One `[name]` section with its entries in declaration order (sweep-axis
/// ordering is derived from this order, so it is preserved).
struct SpecSection {
  std::string name;
  std::size_t line = 0;
  std::vector<SpecEntry> entries;

  const SpecEntry* find(std::string_view key) const;
};

class ScenarioSpec {
 public:
  /// Parses spec text from a stream; `source` names it in error messages.
  static ScenarioSpec parse(std::istream& is, std::string source = "<spec>");
  static ScenarioSpec parse_string(std::string_view text,
                                   std::string source = "<string>");
  /// Opens and parses a file; throws SpecError if unreadable.
  static ScenarioSpec load(const std::string& path);

  /// Programmatic construction (used by the thin-wrapper exp binaries):
  /// creates the section on demand and overwrites an existing key.
  void set(std::string_view section, std::string_view key, std::string value);

  /// Renders the spec back to its plain-text form (sections and entries in
  /// their current order). render() of a parse of a render is the identity,
  /// so a plan built from the rendered text is the plan built from this
  /// spec — the distributed handshake ships campaigns this way and the
  /// worker re-plans and cross-checks the fingerprint.
  std::string render() const;

  const SpecSection* section(std::string_view name) const;
  const std::vector<SpecSection>& sections() const { return sections_; }
  const std::string& source() const { return source_; }

  /// Typed lookups with defaults. A malformed number throws SpecError
  /// citing the entry's line.
  std::string get(std::string_view section, std::string_view key,
                  std::string_view fallback) const;
  std::int64_t get_int(std::string_view section, std::string_view key,
                       std::int64_t fallback) const;

 private:
  SpecSection& section_for_write(std::string_view name);

  std::string source_ = "<spec>";
  std::vector<SpecSection> sections_;
};

/// Expands a sweep expression (see file comment) into its value list, in
/// sweep order. A plain scalar yields a single-element list. Throws
/// SpecError on malformed ranges; `context` prefixes the message.
std::vector<std::string> expand_values(const std::string& value,
                                       const std::string& context = "value");

}  // namespace cobra::scenario

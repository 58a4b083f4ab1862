// SPDX-License-Identifier: MIT
//
// String-keyed process factory — the single source of truth for "which
// spreading processes exist and what parameters do they take". The
// scenario registry, the trial runner, the benches, and scenario_runner
// --list all consume this table; adding a process means adding one
// ProcessSpec entry plus a builder in src/protocols/process_factory.cpp
// (see the README "adding a process" recipe).
//
// Parameters arrive as declaration-ordered (key, value) string pairs —
// the same shape scenario specs resolve to. Every builder validates its
// own keys and rejects unknown ones loudly (ProcessFactoryError), so a
// typo'd key names itself instead of being ignored.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/process.hpp"
#include "graph/graph.hpp"

namespace cobra {

/// Resolved scalar parameters in declaration order (lookups are by key).
using ProcessParams = std::vector<std::pair<std::string, std::string>>;

/// Raised on unknown process names, unknown/malformed/missing parameters.
/// The scenario layer rethrows these as SpecError.
class ProcessFactoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One accepted parameter key plus its --list documentation.
struct ProcessParamSpec {
  const char* key;
  const char* doc;  ///< short "type/default — meaning" line
};

/// Registry metadata for one process ("name" itself is implied).
struct ProcessSpec {
  const char* name;
  const char* summary;  ///< one-line description for --list
  std::vector<ProcessParamSpec> params;
};

/// The full registry, sorted by name.
const std::vector<ProcessSpec>& process_registry();

/// Registered names, sorted.
std::vector<std::string> process_names();

bool is_process_name(std::string_view name);

/// True if `key` is a parameter the process accepts — campaign planners
/// use this to vet spec keys before anything runs.
bool process_has_param(std::string_view name, std::string_view key);

/// Builds the process named params["name"] bound to `g`, as a reusable
/// single-thread workspace. Throws ProcessFactoryError on an unknown name,
/// missing/malformed parameters, or unknown keys.
std::unique_ptr<Process> make_process(const Graph& g,
                                      const ProcessParams& params);

/// Convenience overload with the name passed separately (params may still
/// contain a redundant, equal "name" entry).
std::unique_ptr<Process> make_process(const Graph& g, std::string_view name,
                                      const ProcessParams& params);

}  // namespace cobra

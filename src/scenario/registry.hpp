// SPDX-License-Identifier: MIT
//
// Scenario registries: the graph-family factory (every family in
// src/graph/generators*.cpp plus external edge-list files) and the
// SpecError-translating veneer over the unified process factory
// (core/process_factory.hpp) — the process table itself lives with the
// processes, so the scenario engine, trial runner, and benches all read
// the same registry.
//
// Parameters arrive as strings straight from the spec; each factory
// validates its own keys and rejects unknown ones loudly (SpecError), so a
// typo in a scenario file names the bad key instead of being ignored.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "core/process_factory.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"
#include "scenario/spec.hpp"

namespace cobra::scenario {

/// Resolved scalar parameters in declaration order (order matters for
/// sweep-axis nesting; lookups are by key). Same shape the process
/// factory consumes.
using ParamMap = ProcessParams;

/// Value of `key`, or nullptr.
const std::string* find_param(const ParamMap& params, std::string_view key);

/// Deterministic canonical form "k1=v1,k2=v2" with keys sorted — the basis
/// for graph-cache keys, graph seeds, and campaign fingerprints.
std::string canonical_params(const ParamMap& params);

// ---- graph families ----

/// Registered family names, sorted.
std::vector<std::string> graph_families();
bool is_graph_family(std::string_view name);

/// True if `key` is a parameter the family accepts — the campaign planner
/// rejects typo'd spec keys up front (so --dry-run vets them) instead of
/// letting them surface as sweep axes that error mid-run.
bool graph_family_has_param(std::string_view family, std::string_view key);

/// Accepted parameter keys of `family`, in declaration order (empty for
/// an unknown family) — scenario_runner --list prints these.
std::vector<std::string> graph_family_param_keys(std::string_view family);

/// Builds the family named params["family"]; `rng` drives the random
/// families (deterministic families ignore it). Throws SpecError on an
/// unknown family, missing/malformed parameters, or unknown keys.
Graph build_graph(const ParamMap& params, Rng& rng);

/// Pre-build memory estimate for a resolved [graph] parameter set — what
/// scenario_runner --dry-run prints per job so an overnight campaign can
/// be sanity-checked against available RAM before launch. For random
/// families the edge count is the expectation; margulis reports its
/// template upper bound. family=file is known when the file is a .cgr
/// (the header is read — exact sizes); known=false for edge-list files
/// (size unknowable without parsing) and for malformed parameter values
/// (the actual run reports those as errors).
struct GraphMemoryEstimate {
  bool known = false;
  std::uint64_t n = 0;          ///< vertex count
  std::uint64_t endpoints = 0;  ///< 2m (adjacency entries)
  std::size_t offset_bytes = 0; ///< 4 or 8 — the width-adaptive selection
  std::uint64_t csr_bytes = 0;  ///< (n+1)*offset_bytes + endpoints*4
  /// Weight array bytes (endpoints*4 = 8m) when the job requests
  /// weight = uniform|exp, or loads a weighted file it keeps; 0 for
  /// unweighted jobs. Alias tables add endpoints*8 more when a process
  /// sets weighted=1 — scenario_runner --dry-run folds that in per job
  /// from the process params.
  std::uint64_t weight_bytes = 0;
  /// Portion of total_bytes() that is file-backed rather than resident:
  /// family=file with mmap=1 on a .cgr keeps the CSR (and any file-carried
  /// weights) as views over the mapping, so only total - mapped competes
  /// for RAM up front. Synthesized weights over a mapped graph are still
  /// owned, so they stay out of this number. 0 for in-core jobs.
  std::uint64_t mapped_bytes = 0;

  std::uint64_t total_bytes() const { return csr_bytes + weight_bytes; }
  std::uint64_t resident_bytes() const { return total_bytes() - mapped_bytes; }
};
GraphMemoryEstimate estimate_graph_memory(const ParamMap& params);

// ---- processes ----
//
// The process names and keys are the unified factory's
// (core/process_factory.hpp). make_process below wraps its builder so
// every failure surfaces as SpecError and campaign planning reports one
// error type. The returned processes are single-thread workspaces; drive
// one trial as process->run(rng, start) (see core/process.hpp).

/// Instantiates the process named params["name"] on `g`. Throws SpecError
/// on unknown names, malformed parameters, or unknown keys.
std::unique_ptr<Process> make_process(const Graph& g, const ParamMap& params);

}  // namespace cobra::scenario

// SPDX-License-Identifier: MIT
//
// The process registry (see core/process_factory.hpp). This is the only
// translation unit that knows every concrete process type; everything
// above it — scenario engine, trial runner, benches, scenario_runner
// --list — sees the uniform Process interface plus this table's metadata.
//
// Adding a process:
//   1. implement a Process subclass with a reusable workspace,
//   2. append one entry to kRegistry (name, summary, keys, builder),
// and it is immediately sweepable from scenario specs, runnable by the
// trial runner, listed by scenario_runner --list, and covered by the
// registry-driven tests and benches.
#include "core/process_factory.hpp"

#include <algorithm>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/sis.hpp"
#include "protocols/branching_walk.hpp"
#include "protocols/flood.hpp"
#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "protocols/push_pull.hpp"
#include "protocols/random_walk.hpp"
#include "util/param_reader.hpp"

namespace cobra {

namespace {

/// Process parameter reader reporting ProcessFactoryError (shared
/// machinery in util/param_reader.hpp; the graph-family registry uses the
/// same reader with SpecError).
using Reader = ParamReader<ProcessFactoryError>;

/// Parses the shared branching spec: integer `k`, or fractional `rho`
/// (expected factor 1 + rho); giving both is an error.
Branching read_branching(Reader& p) {
  const bool has_rho = p.has("rho");
  const bool has_k = p.has("k");
  if (has_rho && has_k) {
    throw ProcessFactoryError(
        "process: give either 'k' (integer branching) or 'rho' "
        "(fractional), not both");
  }
  if (has_rho) {
    const double rho = p.require_double("rho");
    if (rho < 0.0) {
      throw ProcessFactoryError("process: 'rho' must be >= 0");
    }
    return Branching::fractional(rho);
  }
  const std::int64_t k = p.get_int("k", 2);
  if (k < 1) {
    throw ProcessFactoryError("process: 'k' must be >= 1");
  }
  return Branching::fixed(static_cast<unsigned>(k));
}

std::size_t read_max_rounds(Reader& p, std::size_t fallback) {
  const std::int64_t v =
      p.get_int("max_rounds", static_cast<std::int64_t>(fallback));
  if (v < 0) {
    throw ProcessFactoryError("process: 'max_rounds' must be >= 0");
  }
  return static_cast<std::size_t>(v);
}

bool read_record_curve(Reader& p) {
  return p.get_int("record_curve", 1) != 0;
}

/// Parses `weighted` and fails fast (with registry context) when the
/// bound graph carries no weights — the process constructors re-check,
/// but this names the actual problem instead of surfacing a bare
/// invalid_argument mid-campaign.
bool read_weighted(Reader& p, const Graph& g, const char* process_name) {
  const bool weighted = p.get_int("weighted", 0) != 0;
  if (weighted && !g.is_weighted()) {
    throw ProcessFactoryError(
        std::string("process '") + process_name + "': weighted=1 but graph '" +
        g.name() +
        "' has no edge weights (load a weighted edge list / .cgr v2, or set "
        "'weight = uniform|exp' on the [graph] section)");
  }
  return weighted;
}

/// First vertex with an edge — the workspace-construction start for the
/// engines whose constructor needs one (trial starts are rotated by the
/// caller and revalidated on reset).
Vertex first_spreadable(const Graph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) return v;
  }
  throw ProcessFactoryError("graph '" + g.name() + "' has no edges");
}

/// BIPS/SIS make every susceptible vertex sample its neighbourhood each
/// round, so — unlike COBRA and the walk-style protocols — isolated
/// vertices anywhere are a hard error; say so with registry context.
void require_all_degrees(const Graph& g, const char* process_name) {
  if (g.num_vertices() > 0 && g.min_degree() == 0) {
    throw ProcessFactoryError(
        std::string("process '") + process_name + "': graph '" + g.name() +
        "' has isolated vertices, but every vertex samples "
        "neighbours each round (min degree >= 1 required)");
  }
}

using Builder = std::unique_ptr<Process> (*)(const Graph&, Reader&);

struct RegistryEntry {
  ProcessSpec spec;
  Builder build;
};

constexpr ProcessParamSpec kBranchingKeys[] = {
    {"k", "int >= 1 (default 2) — neighbours drawn per active vertex"},
    {"rho", "float >= 0 — fractional branching 1 + rho (excludes 'k')"},
};
constexpr ProcessParamSpec kMaxRounds20 = {
    "max_rounds", "int (default 2^20) — abort threshold"};
constexpr ProcessParamSpec kRecordCurve = {
    "record_curve", "0/1 (default 1) — record the per-round curve"};
constexpr ProcessParamSpec kWeighted = {
    "weighted",
    "0/1 (default 0) — weight-proportional neighbour draws via alias "
    "tables (requires a weighted graph)"};

const std::vector<RegistryEntry>& registry() {
  // Sorted by name; the table is the one place a process is declared.
  static const std::vector<RegistryEntry> kRegistry = {
      {{"bips",
        "biased infection with persistent source (epidemic dual of COBRA)",
        {kBranchingKeys[0], kBranchingKeys[1], kMaxRounds20, kRecordCurve,
         kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         require_all_degrees(g, "bips");
         BipsOptions options;
         options.branching = read_branching(p);
         options.max_rounds = read_max_rounds(p, 1u << 20);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "bips");
         return std::make_unique<BipsProcess>(g, first_spreadable(g), options);
       }},
      {{"branching-walk",
        "non-coalescing branching walk (COBRA without coalescing)",
        {{"k", "int >= 1 (default 2) — particles spawned per particle"},
         {"max_rounds", "int (default 64) — abort threshold"},
         {"vertex_cap", "int (default 2^20) — per-vertex particle cap"},
         kRecordCurve, kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         BranchingWalkOptions options;
         const std::int64_t k = p.get_int("k", 2);
         if (k < 1) {
           throw ProcessFactoryError("process: 'k' must be >= 1");
         }
         options.k = static_cast<unsigned>(k);
         options.max_rounds = read_max_rounds(p, 64);
         const std::int64_t cap = p.get_int("vertex_cap", 1 << 20);
         if (cap < 1) {
           throw ProcessFactoryError("process: 'vertex_cap' must be >= 1");
         }
         options.vertex_cap = static_cast<std::uint64_t>(cap);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "branching-walk");
         return std::make_unique<BranchingWalkProcess>(g, options);
       }},
      {{"cobra",
        "coalescing-branching random walk (the paper's process)",
        {kBranchingKeys[0], kBranchingKeys[1], kMaxRounds20, kRecordCurve,
         kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         CobraOptions options;
         options.branching = read_branching(p);
         options.max_rounds = read_max_rounds(p, 1u << 20);
         // Gates only the curve; totals and peak are counted regardless
         // (Process contract: results do not depend on curve recording).
         options.record_curves = read_record_curve(p);
         options.weighted = read_weighted(p, g, "cobra");
         return std::make_unique<CobraProcess>(g, first_spreadable(g),
                                               options);
       }},
      {{"flood",
        "deterministic flooding (eccentricity rounds, Theta(m) msgs/round)",
        {kMaxRounds20, kRecordCurve}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         FloodOptions options;
         options.max_rounds = read_max_rounds(p, 1u << 20);
         options.record_curve = read_record_curve(p);
         return std::make_unique<FloodProcess>(g, options);
       }},
      {{"pull",
        "pull rumour spreading (uninformed vertices sample one neighbour)",
        {kMaxRounds20, kRecordCurve, kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         PullOptions options;
         options.max_rounds = read_max_rounds(p, 1u << 20);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "pull");
         return std::make_unique<PullProcess>(g, options);
       }},
      {{"push",
        "push rumour spreading (informed vertices send to one neighbour)",
        {kMaxRounds20, kRecordCurve, kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         PushOptions options;
         options.max_rounds = read_max_rounds(p, 1u << 20);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "push");
         return std::make_unique<PushProcess>(g, options);
       }},
      {{"push-pull",
        "push-pull rumour spreading (Karp et al.; n contacts per round)",
        {kMaxRounds20, kRecordCurve, kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         PushPullOptions options;
         options.max_rounds = read_max_rounds(p, 1u << 20);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "push-pull");
         return std::make_unique<PushPullProcess>(g, options);
       }},
      {{"sis",
        "source-free SIS epidemic (BIPS without the persistent source)",
        {kBranchingKeys[0], kBranchingKeys[1],
         {"max_rounds", "int (default 2^16) — abort threshold"},
         kRecordCurve, kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         require_all_degrees(g, "sis");
         SisOptions options;
         options.branching = read_branching(p);
         options.max_rounds = read_max_rounds(p, 1u << 16);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "sis");
         return std::make_unique<SisProcess>(g, options);
       }},
      {{"walk",
        "simple random walk (k = 1 COBRA; one step per round)",
        {{"max_rounds", "int (default 2^28) — step budget"}, kRecordCurve,
         kWeighted}},
       [](const Graph& g, Reader& p) -> std::unique_ptr<Process> {
         RandomWalkOptions options;
         options.max_steps = read_max_rounds(p, std::size_t{1} << 28);
         options.record_curve = read_record_curve(p);
         options.weighted = read_weighted(p, g, "walk");
         return std::make_unique<WalkProcess>(g, options);
       }},
  };
  return kRegistry;
}

const RegistryEntry* find_entry(std::string_view name) {
  for (const auto& entry : registry()) {
    if (name == entry.spec.name) return &entry;
  }
  return nullptr;
}

}  // namespace

const std::vector<ProcessSpec>& process_registry() {
  static const std::vector<ProcessSpec> kSpecs = [] {
    std::vector<ProcessSpec> specs;
    for (const auto& entry : registry()) specs.push_back(entry.spec);
    return specs;
  }();
  return kSpecs;
}

std::vector<std::string> process_names() {
  std::vector<std::string> names;
  for (const auto& entry : registry()) names.emplace_back(entry.spec.name);
  return names;
}

bool is_process_name(std::string_view name) {
  return find_entry(name) != nullptr;
}

bool process_has_param(std::string_view name, std::string_view key) {
  const RegistryEntry* entry = find_entry(name);
  if (entry == nullptr) return false;
  for (const auto& param : entry->spec.params) {
    if (key == param.key) return true;
  }
  return false;
}

std::unique_ptr<Process> make_process(const Graph& g, std::string_view name,
                                      const ProcessParams& params) {
  const RegistryEntry* entry = find_entry(name);
  if (entry == nullptr) {
    throw ProcessFactoryError("process: unknown name '" + std::string(name) +
                              "' (see scenario_runner --list)");
  }
  Reader reader(params, "process '" + std::string(name) + "'");
  reader.has("name");  // optional dispatch key: consumed if present
  std::unique_ptr<Process> process = entry->build(g, reader);
  reader.finish();
  return process;
}

std::unique_ptr<Process> make_process(const Graph& g,
                                      const ProcessParams& params) {
  for (const auto& [key, value] : params) {
    if (key == "name") return make_process(g, value, params);
  }
  throw ProcessFactoryError("process: missing required parameter 'name'");
}

}  // namespace cobra

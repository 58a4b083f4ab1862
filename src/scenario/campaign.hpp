// SPDX-License-Identifier: MIT
//
// Campaign planning and execution: turns a parsed ScenarioSpec into a
// deterministic job list (grid expansion over graph / process / seed
// axes), runs its trials on the trial-granular JobRunner
// (scenario/job_runner.hpp), folds them into the stats/ summaries, and
// checkpoints every finished job into an append-only journal so a killed
// campaign resumes where it left off.
//
// Determinism contract: each job's result is a pure function of
// (base_seed, job index) — graphs are seeded from (base_seed, seed axis,
// canonical graph params) and trial t of job j draws from
// Rng::for_trial(job_trial_seed(plan, j), t). Results are therefore identical
// whatever the thread count or interruption pattern, and the final JSONL /
// CSV files are byte-identical between an interrupted-and-resumed campaign
// and an uninterrupted one (tested in tests/scenario_test.cpp).
//
// Grid expansion: every multi-valued key (see expand_values in spec.hpp)
// in [graph] or [process] becomes a sweep axis, plus the optional
// `[campaign] seeds` axis. Axis nesting is: seeds slowest, then [graph]
// keys in declaration order, then [process] keys, last key fastest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "scenario/telemetry.hpp"
#include "stats/online.hpp"
#include "stats/summary.hpp"

namespace cobra::scenario {

/// One fully resolved grid point.
struct JobSpec {
  std::size_t index = 0;        ///< position in the expanded grid
  std::uint64_t seed_index = 0; ///< value of the seeds axis
  ParamMap graph;               ///< scalar graph params incl. "family"
  ParamMap process;             ///< scalar process params incl. "name"
  /// Scalar [faults] params (core/faults.hpp keys); empty = no fault
  /// model, the byte-identical legacy path.
  ParamMap faults;
};

struct CampaignPlan {
  std::string name = "campaign";
  std::size_t trials = 16;
  std::uint64_t base_seed = 20260612;
  std::size_t threads = 0;  ///< 0 = serial execution
  std::string output;       ///< sink/journal stem; empty = in-memory only
  std::vector<JobSpec> jobs;
  /// Hash of (name, trials, base_seed, every job); a resume against a
  /// journal written by a different plan fails loudly. Deliberately
  /// excludes `telemetry` and `batch` — observability and the execution
  /// engine are out of band, so toggling them must neither invalidate
  /// journals nor perturb results.
  std::uint64_t fingerprint = 0;
  /// Parsed [telemetry] section (scenario_runner's --trace/--progress/
  /// --status/--rounds flags override it after planning).
  TelemetryConfig telemetry;
  /// [engine] batch width for the trial loop (1 = scalar). Like telemetry
  /// this is deliberately fingerprint-neutral: the batched engine's
  /// per-trial results are bitwise-identical to the scalar path (the
  /// sim/batched.hpp contract), so journals written at any batch resume
  /// under any other and the sinks stay byte-identical.
  std::size_t batch = 1;
};

/// Expands the spec into a plan. Throws SpecError (with line numbers where
/// available) on unknown sections, unknown families/processes, malformed
/// sweeps, or an empty grid.
CampaignPlan plan_campaign(const ScenarioSpec& spec);

/// Aggregated result of one job's trials.
struct JobResult {
  std::size_t trials = 0;
  std::size_t failed = 0;     ///< trials that did not complete
  Summary rounds;             ///< over completed trials (count 0 if none)
  Summary transmissions;
  std::string graph_name;     ///< generator-assigned instance name
  // ---- fault-layer aggregates (faulty == the job ran under a [faults]
  // section; all zero otherwise and absent from the sinks/journal) ----
  bool faulty = false;
  Summary pdr;     ///< delivered / tx per completed trial (0 when tx == 0)
  Summary energy;  ///< total energy per completed trial (FaultOptions units)
  std::uint64_t delivered = 0;  ///< summed over ALL trials, failed included
  std::uint64_t dropped = 0;    ///< lost to channel drop, all trials
  std::uint64_t blocked = 0;    ///< receiver down/asleep, all trials
};

struct CampaignOptions {
  /// SIZE_MAX = use plan.threads; otherwise overrides (0 = serial).
  std::size_t threads = static_cast<std::size_t>(-1);
  /// Overrides plan.output when non-empty.
  std::string output;
  /// Pick up a matching journal when present (mismatch throws); false
  /// starts over, truncating any existing journal.
  bool resume = true;
  /// Stop cleanly after this many newly executed jobs (0 = unlimited) —
  /// the checkpoint/resume test hook and the CLI's --max-jobs.
  std::size_t max_jobs = 0;
  /// Per-job progress lines (nullptr = silent).
  std::ostream* progress = nullptr;
  /// Stream for the telemetry heartbeat when the plan enables a progress
  /// interval; nullptr = stderr. Tests capture it here.
  std::ostream* telemetry_heartbeat = nullptr;
};

struct CampaignResult {
  /// Index-aligned with plan.jobs; nullopt for jobs not yet executed
  /// (only possible when max_jobs stopped the run early).
  std::vector<std::optional<JobResult>> jobs;
  std::size_t resumed = 0;   ///< jobs restored from the journal
  std::size_t executed = 0;  ///< jobs run by this invocation
  bool complete = false;     ///< every job has a result
  /// Campaign-wide streaming aggregate of completed-trial round counts
  /// (resumed jobs pooled via OnlineStats::from_moments).
  OnlineStats all_rounds;
};

/// Executes the plan. When an output stem is configured the journal is
/// updated after every job and, once complete, `<stem>.jsonl` and
/// `<stem>.csv` are (re)written deterministically.
CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options = {});

/// The deterministic graph instance for a job, rebuilt on demand (the
/// campaign runner caches these internally; thin-wrapper experiment
/// binaries use this to re-derive the instance for e.g. spectral reports).
std::shared_ptr<const Graph> build_job_graph(const CampaignPlan& plan,
                                             const JobSpec& job);

/// By-value variant for callers that manage their own cache (the dist
/// worker feeds this into a GraphCache builder).
Graph build_campaign_graph(const CampaignPlan& plan, const JobSpec& job);

/// Executes one job of the plan on an already-built graph instance, all
/// trials on the calling thread: the JobRunner's one-participant case (same
/// seeding, same fault wiring, same trial loop), so its result serializes
/// byte-identically to one run_campaign computes.
JobResult execute_campaign_job(const CampaignPlan& plan, const JobSpec& job,
                               const Graph& g);

/// The seed of every trial of `job`: trial t draws from
/// Rng::for_trial(job_trial_seed(plan, job), t), whichever thread runs it.
std::uint64_t job_trial_seed(const CampaignPlan& plan, const JobSpec& job);

/// Writes `<stem>.jsonl` / `<stem>.csv` for a complete result set, in job
/// order — deterministic and byte-identical however the results were
/// produced (single process, resume, or distributed merge). Every entry
/// must be present. Shared by run_campaign and the dist coordinator.
void write_campaign_sinks(const CampaignPlan& plan,
                          const std::vector<std::optional<JobResult>>& jobs,
                          const std::string& stem);

}  // namespace cobra::scenario

// SPDX-License-Identifier: MIT
#include "scenario/campaign.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>

#include "core/faults.hpp"
#include "obs/progress.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/job_runner.hpp"
#include "scenario/sink.hpp"
#include "sim/batched.hpp"
#include "util/stopwatch.hpp"

namespace cobra::scenario {

namespace {

std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 1469598103934665603ULL) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// SplitMix-style combine, the same shape as Rng::for_trial's premix.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (0x632be59bd9b4e019ULL * (b + 1)));
  return sm.next();
}

std::uint64_t graph_seed(const CampaignPlan& plan, const JobSpec& job) {
  return mix64(mix64(plan.base_seed, job.seed_index),
               fnv1a(canonical_params(job.graph)));
}

Graph build_graph_instance(const CampaignPlan& plan, const JobSpec& job) {
  Rng rng(graph_seed(plan, job));
  return build_graph(job.graph, rng);
}

struct Axis {
  int section;        ///< 0 = seeds, 1 = graph, 2 = process, 3 = faults
  std::size_t entry;  ///< entry position within the section
  std::vector<std::string> values;
};

std::uint64_t parse_seed_value(const std::string& text) {
  std::int64_t value = 0;
  if (!parse_spec_int(text, value) || value < 0) {
    throw SpecError("[campaign] seeds expects non-negative integers, got '" +
                    text + "'");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

CampaignPlan plan_campaign(const ScenarioSpec& spec) {
  CampaignPlan plan;
  // Loudly reject unknown sections and campaign keys — silent typos are
  // how experiment campaigns go subtly wrong.
  for (const auto& section : spec.sections()) {
    if (section.name != "campaign" && section.name != "graph" &&
        section.name != "process" && section.name != "faults" &&
        section.name != "telemetry" && section.name != "engine") {
      throw SpecError(
          spec.source() + ":" + std::to_string(section.line) +
          ": unknown section [" + section.name +
          "] (expected campaign/graph/process/faults/telemetry/engine)");
    }
  }
  if (const SpecSection* campaign = spec.section("campaign")) {
    for (const auto& entry : campaign->entries) {
      if (entry.key != "name" && entry.key != "trials" &&
          entry.key != "base_seed" && entry.key != "threads" &&
          entry.key != "output" && entry.key != "seeds") {
        throw SpecError(spec.source() + ":" + std::to_string(entry.line) +
                        ": unknown [campaign] key '" + entry.key + "'");
      }
    }
  }
  plan.name = spec.get("campaign", "name", "campaign");
  const std::int64_t trials = spec.get_int("campaign", "trials", 16);
  if (trials < 1) {
    throw SpecError(spec.source() + ": [campaign] trials must be >= 1");
  }
  plan.trials = static_cast<std::size_t>(trials);
  plan.base_seed =
      static_cast<std::uint64_t>(spec.get_int("campaign", "base_seed",
                                              20260612));
  const std::int64_t threads = spec.get_int("campaign", "threads", 0);
  if (threads < 0 || threads > 4096) {
    throw SpecError(spec.source() +
                    ": [campaign] threads must be in [0, 4096]");
  }
  plan.threads = static_cast<std::size_t>(threads);
  plan.output = spec.get("campaign", "output", "");

  const SpecSection* graph = spec.section("graph");
  if (graph == nullptr) {
    throw SpecError(spec.source() + ": missing required section [graph]");
  }
  const SpecSection* process = spec.section("process");
  if (process == nullptr) {
    throw SpecError(spec.source() + ": missing required section [process]");
  }

  // Validate the dispatch keys early, with line numbers.
  const SpecEntry* family = graph->find("family");
  if (family == nullptr) {
    throw SpecError(spec.source() + ":" + std::to_string(graph->line) +
                    ": [graph] needs 'family = <name>'");
  }
  if (!is_graph_family(family->value)) {
    throw SpecError(spec.source() + ":" + std::to_string(family->line) +
                    ": unknown graph family '" + family->value + "'");
  }
  const SpecEntry* process_name = process->find("name");
  if (process_name == nullptr) {
    throw SpecError(spec.source() + ":" + std::to_string(process->line) +
                    ": [process] needs 'name = <process>'");
  }
  // The process name itself may sweep ("name = cobra, push-pull, flood")
  // so one campaign compares protocols on the same graphs and fault
  // schedules; every swept name must be a known process.
  const std::vector<std::string> process_names =
      expand_values(process_name->value,
                    spec.source() + ":" +
                        std::to_string(process_name->line) +
                        ": [process] name");
  for (const std::string& name : process_names) {
    if (!is_process_name(name)) {
      throw SpecError(spec.source() + ":" +
                      std::to_string(process_name->line) +
                      ": unknown process '" + name + "'");
    }
  }

  // Reject typo'd parameter keys at plan time so --dry-run vets the whole
  // spec; a stray key would otherwise become a bogus sweep axis and only
  // error once the campaign executes.
  for (const auto& entry : graph->entries) {
    if (entry.key == "family") continue;
    if (!graph_family_has_param(family->value, entry.key)) {
      throw SpecError(spec.source() + ":" + std::to_string(entry.line) +
                      ": graph family '" + family->value +
                      "' has no parameter '" + entry.key + "'");
    }
  }
  for (const auto& entry : process->entries) {
    if (entry.key == "name") continue;
    // With a swept name, every other [process] key must be meaningful for
    // every process in the sweep — a key only some of them accept would
    // silently change the comparison.
    for (const std::string& name : process_names) {
      if (!process_has_param(name, entry.key)) {
        throw SpecError(spec.source() + ":" + std::to_string(entry.line) +
                        ": process '" + name + "' has no parameter '" +
                        entry.key + "'");
      }
    }
  }
  const SpecSection* faults = spec.section("faults");
  if (faults != nullptr) {
    for (const auto& entry : faults->entries) {
      if (!fault_has_param(entry.key)) {
        throw SpecError(spec.source() + ":" + std::to_string(entry.line) +
                        ": unknown [faults] key '" + entry.key +
                        "' (scenario_runner --list prints the accepted set)");
      }
    }
  }

  // [telemetry] configures observability sinks. Telemetry is out of band:
  // its keys never become sweep axes and never enter the fingerprint, so
  // adding/removing the section resumes against the same journal and
  // leaves the result sinks byte-identical (CI-enforced).
  if (const SpecSection* telemetry = spec.section("telemetry")) {
    for (const auto& entry : telemetry->entries) {
      const std::string where =
          spec.source() + ":" + std::to_string(entry.line) + ": [telemetry] ";
      if (entry.key == "progress") {
        double seconds = 0.0;
        if (!parse_spec_double(entry.value, seconds) || seconds < 0.0) {
          throw SpecError(where +
                          "progress expects an interval in seconds >= 0 "
                          "(0 = off), got '" + entry.value + "'");
        }
        plan.telemetry.progress_interval = seconds;
      } else if (entry.key == "status") {
        parse_telemetry_sink(entry.value, plan.telemetry.status,
                             plan.telemetry.status_path);
      } else if (entry.key == "trace") {
        parse_telemetry_sink(entry.value, plan.telemetry.trace,
                             plan.telemetry.trace_path);
      } else if (entry.key == "rounds") {
        parse_telemetry_sink(entry.value, plan.telemetry.rounds,
                             plan.telemetry.rounds_path);
      } else if (entry.key == "rounds_sample_every" ||
                 entry.key == "rounds_trials") {
        std::int64_t value = 0;
        if (!parse_spec_int(entry.value, value) || value < 1) {
          throw SpecError(where + entry.key + " expects an integer >= 1, "
                          "got '" + entry.value + "'");
        }
        (entry.key == "rounds_sample_every"
             ? plan.telemetry.rounds_sample_every
             : plan.telemetry.rounds_trials) =
            static_cast<std::size_t>(value);
      } else {
        throw SpecError(where + "has no key '" + entry.key +
                        "' (expected progress/status/trace/rounds/"
                        "rounds_sample_every/rounds_trials)");
      }
    }
  }

  // [engine] batch is validated and otherwise ignored: campaigns run every
  // trial on the scalar round. Like [telemetry] it never sweeps and never
  // enters the fingerprint, so older specs and journals keep working.
  if (const SpecSection* engine = spec.section("engine")) {
    for (const auto& entry : engine->entries) {
      const std::string where =
          spec.source() + ":" + std::to_string(entry.line) + ": [engine] ";
      if (entry.key == "batch") {
        std::int64_t value = 0;
        if (!parse_spec_int(entry.value, value) || value < 1 ||
            value > static_cast<std::int64_t>(kMaxBatch)) {
          throw SpecError(where + "batch expects an integer in [1, " +
                          std::to_string(kMaxBatch) + "], got '" +
                          entry.value + "'");
        }
        plan.batch = static_cast<std::size_t>(value);
      } else {
        throw SpecError(where + "has no key '" + entry.key +
                        "' (expected batch)");
      }
    }
  }

  // Sweep axes: seeds slowest, then [graph] keys in declaration order,
  // then [process] keys, then [faults] keys (last key fastest).
  std::vector<Axis> axes;
  axes.push_back({0, 0,
                  expand_values(spec.get("campaign", "seeds", "0"),
                                "[campaign] seeds")});
  const auto add_section_axes = [&axes, &spec](const SpecSection& section,
                                               int section_id) {
    for (std::size_t i = 0; i < section.entries.size(); ++i) {
      const SpecEntry& entry = section.entries[i];
      // The 'family' dispatch key and file paths never sweep (paths
      // legitimately contain '..'); the process 'name' does.
      if (entry.key == "family" || entry.key == "file") {
        axes.push_back({section_id, i, {entry.value}});
        continue;
      }
      axes.push_back({section_id, i,
                      expand_values(entry.value,
                                    spec.source() + ":" +
                                        std::to_string(entry.line) + ": [" +
                                        section.name + "] " + entry.key)});
    }
  };
  add_section_axes(*graph, 1);
  add_section_axes(*process, 2);
  if (faults != nullptr) add_section_axes(*faults, 3);

  std::size_t total = 1;
  constexpr std::size_t kMaxJobs = 200000;
  for (const Axis& axis : axes) {
    total *= axis.values.size();
    if (total > kMaxJobs) {
      throw SpecError(spec.source() + ": grid expands past " +
                      std::to_string(kMaxJobs) + " jobs");
    }
  }

  plan.jobs.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    JobSpec job;
    job.index = index;
    job.graph.resize(graph->entries.size());
    job.process.resize(process->entries.size());
    if (faults != nullptr) job.faults.resize(faults->entries.size());
    std::size_t residual = index;
    std::size_t stride = total;
    for (const Axis& axis : axes) {
      stride /= axis.values.size();
      const std::string& value = axis.values[residual / stride];
      residual %= stride;
      switch (axis.section) {
        case 0:
          job.seed_index = parse_seed_value(value);
          break;
        case 1:
          job.graph[axis.entry] = {graph->entries[axis.entry].key, value};
          break;
        case 2:
          job.process[axis.entry] = {process->entries[axis.entry].key, value};
          break;
        default:
          job.faults[axis.entry] = {faults->entries[axis.entry].key, value};
      }
    }
    // Vet every fault combination at plan time, so --dry-run (which only
    // plans) rejects malformed values before any compute is spent.
    if (!job.faults.empty()) {
      try {
        (void)parse_fault_options(job.faults);
      } catch (const std::invalid_argument& e) {
        throw SpecError(spec.source() + ": job " + std::to_string(index) +
                        ": [faults] " + e.what());
      }
    }
    plan.jobs.push_back(std::move(job));
  }

  // Fingerprint deliberately excludes [telemetry] and [engine]: both are
  // out of band (observability / execution strategy), so toggling them
  // must neither invalidate journals nor perturb results.
  std::uint64_t fp = fnv1a(plan.name);
  fp = fnv1a(std::to_string(plan.trials), fp);
  fp = fnv1a(std::to_string(plan.base_seed), fp);
  for (const JobSpec& job : plan.jobs) {
    fp = fnv1a(std::to_string(job.seed_index), fp);
    fp = fnv1a(canonical_params(job.graph), fp);
    fp = fnv1a(canonical_params(job.process), fp);
    // No [faults] canonicalises to "" — a no-op for fnv1a — so every
    // pre-fault-layer fingerprint (and journal) stays valid.
    fp = fnv1a(canonical_params(job.faults), fp);
  }
  plan.fingerprint = fp;
  return plan;
}

std::shared_ptr<const Graph> build_job_graph(const CampaignPlan& plan,
                                             const JobSpec& job) {
  return std::make_shared<const Graph>(build_graph_instance(plan, job));
}

Graph build_campaign_graph(const CampaignPlan& plan, const JobSpec& job) {
  return build_graph_instance(plan, job);
}

std::uint64_t job_trial_seed(const CampaignPlan& plan, const JobSpec& job) {
  return mix64(plan.base_seed, job.index);
}

void write_campaign_sinks(const CampaignPlan& plan,
                          const std::vector<std::optional<JobResult>>& jobs,
                          const std::string& stem) {
  std::ofstream jsonl(stem + ".jsonl", std::ios::trunc);
  std::ofstream csv(stem + ".csv", std::ios::trunc);
  if (!jsonl || !csv) {
    throw SpecError("cannot write campaign outputs at stem '" + stem + "'");
  }
  const bool faulty =
      std::any_of(plan.jobs.begin(), plan.jobs.end(),
                  [](const JobSpec& j) { return !j.faults.empty(); });
  csv << csv_header(faulty) << '\n';
  for (const JobSpec& job : plan.jobs) {
    const JobResult& job_result = *jobs[job.index];
    jsonl << jsonl_record(plan, job, job_result) << '\n';
    csv << csv_row(plan, job, job_result) << '\n';
  }
  // A full disk fails the buffered writes or the final flush; either
  // leaves a truncated sink, which must not pass for a finished campaign.
  jsonl.close();
  if (!jsonl) throw SpecError("failed writing '" + stem + ".jsonl'");
  csv.close();
  if (!csv) throw SpecError("failed writing '" + stem + ".csv'");
}

CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options) {
  const std::size_t threads =
      options.threads == static_cast<std::size_t>(-1) ? plan.threads
                                                      : options.threads;
  const std::string stem =
      !options.output.empty() ? options.output : plan.output;

  // Telemetry is resolved against the effective stem; an in-memory
  // campaign (no stem) keeps only sinks with explicit paths.
  TelemetryConfig telemetry_config = plan.telemetry;
  if (!stem.empty()) {
    telemetry_config.resolve_paths(stem);
  } else {
    if (telemetry_config.status_path.empty()) telemetry_config.status = false;
    if (telemetry_config.trace_path.empty()) telemetry_config.trace = false;
    if (telemetry_config.rounds_path.empty()) telemetry_config.rounds = false;
  }
  std::unique_ptr<CampaignTelemetry> telemetry;
  if (telemetry_config.any()) {
    telemetry = std::make_unique<CampaignTelemetry>(telemetry_config);
  }
  obs::TraceCollector* trace =
      telemetry != nullptr ? telemetry->trace() : nullptr;
  Stopwatch campaign_watch;

  CampaignResult result;
  result.jobs.assign(plan.jobs.size(), std::nullopt);

  std::unique_ptr<Journal> journal;
  if (!stem.empty()) {
    obs::TraceSpan span(trace, "journal_restore");
    journal = std::make_unique<Journal>(stem + ".journal", plan,
                                        options.resume);
    for (const auto& [index, restored] : journal->restored()) {
      result.jobs[index] = restored;
    }
    result.resumed = journal->restored().size();
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (!result.jobs[i].has_value()) pending.push_back(i);
  }
  // --max-jobs: run only the first N pending jobs, then stop cleanly —
  // exactly what a kill at that point would leave behind.
  if (options.max_jobs != 0 && pending.size() > options.max_jobs) {
    pending.resize(options.max_jobs);
  }

  // Single-flight instance cache: concurrent misses on one key block on
  // the first builder instead of racing duplicate builds (graph_cache.hpp).
  // The trace span wraps only the losing-thread build (cache hits and
  // single-flight waiters record nothing).
  GraphCache cache([&plan, trace](const JobSpec& job) {
    obs::TraceSpan span(trace, "graph_build", GraphCache::key_for(job));
    return build_graph_instance(plan, job);
  });
  const std::size_t total = plan.jobs.size();
  // Hooks run one at a time (JobRunner serializes them), so the journal and
  // the result vector need no lock of their own. A journal write that fails
  // throws out of the hook and fails the campaign.
  JobRunner::Hooks hooks;
  if (journal) {
    // Build timing goes to the metrics registry (status.json's graph_builds
    // / graph_build_seconds, recorded by the runner) and, for journal-backed
    // campaigns, to the legacy note frame — same numbers, two sinks.
    hooks.built = [&journal](const JobSpec& job, const Graph& graph,
                             double seconds) {
      journal->note("graph " + GraphCache::key_for(job) + " name=" +
                    graph.name() + " build_seconds=" + format_double(seconds) +
                    (graph.is_mapped()
                         ? " mapped_bytes=" +
                               std::to_string(graph.mapped_bytes())
                         : ""));
    };
  }
  hooks.done = [&](const JobSpec& job, JobResult&& job_result) {
    obs::TraceSpan journal_span(trace, "journal_append");
    if (journal) journal->append(job.index, job_result);
    if (options.progress != nullptr) {
      *options.progress << "[" << (result.resumed + result.executed + 1)
                        << "/" << total << "] job " << job.index << " "
                        << job_result.graph_name << " rounds mean="
                        << format_double(job_result.rounds.mean)
                        << " failed=" << job_result.failed << "\n";
    }
    result.jobs[job.index] = std::move(job_result);
    ++result.executed;
  };

  JobRunner runner(threads, telemetry != nullptr);
  // The live reporter samples worker-owned relaxed cells and the merged
  // metrics shards; it never blocks the workers.
  std::unique_ptr<obs::ProgressReporter> reporter;
  if (telemetry != nullptr &&
      (telemetry_config.progress_interval > 0.0 || telemetry_config.status)) {
    obs::ProgressReporter::Options reporter_options;
    reporter_options.interval_seconds =
        telemetry_config.progress_interval > 0.0
            ? telemetry_config.progress_interval
            : 2.0;
    reporter_options.status_path = telemetry_config.status_path;
    if (telemetry_config.progress_interval > 0.0) {
      reporter_options.heartbeat = options.telemetry_heartbeat != nullptr
                                       ? options.telemetry_heartbeat
                                       : &std::cerr;
    }
    const std::size_t to_run = pending.size();
    const std::size_t resumed = result.resumed;
    CampaignTelemetry* t = telemetry.get();
    const std::string campaign_name = plan.name;
    reporter = std::make_unique<obs::ProgressReporter>(
        reporter_options,
        [t, &runner, total, to_run, resumed, campaign_name,
         &campaign_watch]() {
          obs::ProgressSnapshot s;
          s.campaign = campaign_name;
          s.jobs_total = total;
          const std::uint64_t executed = t->metrics().counter_value(t->jobs_done);
          s.jobs_done = resumed + static_cast<std::size_t>(executed);
          s.jobs_resumed = resumed;
          s.trials_done = t->metrics().counter_value(t->trials_done);
          s.graph_builds = t->metrics().counter_value(t->graph_builds);
          s.graph_build_seconds =
              t->metrics().histogram_value(t->graph_build_seconds).sum;
          s.elapsed_seconds = campaign_watch.seconds();
          if (s.elapsed_seconds > 0.0) {
            s.trials_per_sec =
                static_cast<double>(s.trials_done) / s.elapsed_seconds;
            if (executed > 0) {
              const double rate =
                  static_cast<double>(executed) / s.elapsed_seconds;
              s.eta_seconds =
                  static_cast<double>(to_run - std::min<std::size_t>(
                                                   to_run, executed)) /
                  rate;
            }
          }
          s.peak_rss_bytes = obs::peak_rss_bytes();
          const auto workers = runner.pool_telemetry();
          s.workers.reserve(workers.size());
          for (const auto& w : workers) {
            obs::ProgressSnapshot::Worker worker;
            worker.chunks = w.chunks;
            worker.busy_seconds = w.busy_seconds;
            worker.utilization = s.elapsed_seconds > 0.0
                                     ? w.busy_seconds / s.elapsed_seconds
                                     : 0.0;
            s.workers.push_back(worker);
          }
          return s;
        });
  }

  runner.run(plan, pending, cache, telemetry.get(), hooks);
  if (reporter != nullptr) reporter->stop();
  // The last group commit: every frame is on disk before the sinks that
  // claim the campaign finished.
  if (journal) journal->close();

  result.complete = true;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (!result.jobs[i].has_value()) {
      result.complete = false;
      continue;
    }
    const Summary& rounds = result.jobs[i]->rounds;
    result.all_rounds.merge(OnlineStats::from_moments(
        rounds.count, rounds.mean, rounds.stddev * rounds.stddev, rounds.min,
        rounds.max));
  }

  // Final sinks are written only for a complete campaign, in job order —
  // deterministic and byte-identical however the campaign was interrupted.
  if (result.complete && !stem.empty()) {
    obs::TraceSpan span(trace, "sink_flush");
    write_campaign_sinks(plan, result.jobs, stem);
  }

  if (telemetry != nullptr && !telemetry->write_trace()) {
    throw SpecError("cannot write trace file '" +
                    telemetry->config().trace_path + "'");
  }
  return result;
}

}  // namespace cobra::scenario

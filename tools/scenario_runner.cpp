// SPDX-License-Identifier: MIT
//
// scenario_runner — the declarative campaign driver. Turns a scenario spec
// (see src/scenario/spec.hpp for the grammar) into a full experiment
// campaign: grid expansion, thread-pool sharding, streaming aggregation,
// JSONL/CSV sinks, and checkpoint/resume via an append-only journal.
//
//   scenario_runner examples/scenarios/cover_vs_n.scenario
//   scenario_runner spec.scenario --threads 8 --output out/run1
//   scenario_runner spec.scenario --max-jobs 5   # stop early (checkpoint)
//   scenario_runner spec.scenario                # picks up where it left off
//
// Exit status: 0 on success (including a clean --max-jobs stop), 1 on any
// spec/plan/journal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "core/faults.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "sim/batched.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/parse_number.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cobra;
using namespace cobra::scenario;

std::string human_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= (std::uint64_t{1} << 30)) {
    std::snprintf(buf, sizeof buf, "%.2fGiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (std::uint64_t{1} << 20)) {
    std::snprintf(buf, sizeof buf, "%.1fMiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else {
    std::snprintf(buf, sizeof buf, "%.1fKiB",
                  static_cast<double>(bytes) / (1ull << 10));
  }
  return buf;
}

/// Output stem fallback: the spec filename without directory or extension.
std::string default_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);
  return stem;
}

/// --list: names plus accepted parameter keys, straight from the factory
/// metadata, so the listing cannot drift from what the planners validate.
void print_registries() {
  std::printf("graph families (accepted [graph] keys):\n");
  for (const auto& name : graph_families()) {
    std::string keys;
    for (const auto& key : graph_family_param_keys(name)) {
      if (!keys.empty()) keys += ", ";
      keys += key;
    }
    std::printf("  %-24s %s\n", name.c_str(),
                keys.empty() ? "(no parameters)" : keys.c_str());
  }
  std::printf("\nprocesses (accepted [process] keys):\n");
  for (const ProcessSpec& spec : process_registry()) {
    std::string keys;
    for (const auto& param : spec.params) {
      if (!keys.empty()) keys += ", ";
      keys += param.key;
    }
    std::printf("  %-24s %s\n", spec.name,
                keys.empty() ? "(no parameters)" : keys.c_str());
    std::printf("  %-24s   %s\n", "", spec.summary);
    for (const auto& param : spec.params) {
      std::printf("  %-24s   %s: %s\n", "", param.key, param.doc);
    }
  }
  std::printf("\nfault layer (accepted [faults] keys; every key sweeps):\n");
  for (const FaultParamSpec& param : fault_param_specs()) {
    std::printf("  %-24s %s\n", param.key, param.doc);
  }
  std::printf(
      "\nengine (accepted [engine] keys; fingerprint-neutral, never "
      "sweeps):\n"
      "  %-24s 1..%zu, accepted and ignored (as is --batch N): every\n"
      "  %-24s trial runs on the scalar round. Kept so that older specs\n"
      "  %-24s and journals still plan and resume.\n",
      "batch", cobra::kMaxBatch, "", "");
}

/// Splits "host:port"; returns false on a malformed value.
bool parse_host_port(const std::string& value, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size()) {
    return false;
  }
  std::int64_t parsed = 0;
  if (!parse_integer(value.substr(colon + 1), parsed) || parsed < 1 ||
      parsed > 65535) {
    return false;
  }
  host = value.substr(0, colon);
  port = static_cast<std::uint16_t>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Query every flag up front so --help can render the full set.
  const bool help = flags.help_requested();
  const bool version = flags.has("version");
  const bool list = flags.has("list");
  const bool dry_run = flags.has("dry-run");
  const bool fresh = flags.has("fresh");
  const bool quiet = flags.has("quiet");
  const std::string output = flags.get("output", "");
  const std::int64_t threads = flags.get_int("threads", -1);
  const std::int64_t trials = flags.get_int("trials", -1);
  const std::int64_t max_jobs = flags.get_int("max-jobs", 0);
  // --batch N rewrites [engine] batch before planning, where it is
  // validated and then ignored: the key is fingerprint-neutral and every
  // trial runs scalar, so it neither invalidates journals nor changes any
  // output byte.
  const std::int64_t batch = flags.get_int("batch", -1);
  // --base-seed, with the spec-style --base_seed spelling accepted too.
  const std::int64_t base_seed =
      flags.get_int("base-seed", flags.get_int("base_seed", 0));
  const bool have_seed_override =
      flags.has("base-seed") || flags.has("base_seed");
  // Telemetry overrides (see the [telemetry] spec section). Values are
  // consumed greedily, so put the spec path before any bare toggle:
  //   scenario_runner spec.scenario --trace --progress 2
  const bool have_progress = flags.has("progress");
  // Bare --progress means the default 2s heartbeat interval.
  const std::string progress_value = flags.get("progress", "");
  const bool have_status = flags.has("status");
  const std::string status_value = flags.get("status", "1");
  const bool have_trace = flags.has("trace");
  const std::string trace_value = flags.get("trace", "1");
  const bool have_rounds = flags.has("rounds");
  const std::string rounds_value = flags.get("rounds", "1");
  // Distributed fabric: --serve [PORT] turns this process into the
  // coordinator for the given spec; --connect HOST:PORT turns it into a
  // worker agent (no spec needed — the coordinator ships it).
  const bool have_serve = flags.has("serve");
  const std::string serve_value = flags.get("serve", "");
  const std::string port_file = flags.get("port-file", "");
  const std::int64_t shard_size = flags.get_int("shard-size", 0);
  const double lease_timeout = flags.get_double("lease-timeout", 30.0);
  const std::string connect = flags.get("connect", "");

  if (version) {
    std::printf("scenario_runner %s\n", build_info_string().c_str());
    std::printf("dist protocol v%u, journal format v%u\n",
                dist::kProtocolVersion, kJournalFormatVersion);
    return 0;
  }

  if (help) {
    std::printf(
        "usage: scenario_runner <spec.scenario> [flags]\n\n"
        "Runs the experiment campaign described by a scenario spec: every\n"
        "sweep-axis combination becomes one deterministic job; finished\n"
        "jobs are checkpointed to <stem>.journal, and rerunning the same\n"
        "spec resumes the remaining jobs. Once complete, <stem>.jsonl and\n"
        "<stem>.csv are written (byte-identical however the campaign was\n"
        "interrupted).\n\n"
        "Observability (out of band — never changes results): --progress N\n"
        "prints a heartbeat every N seconds and rewrites <stem>.status.json;\n"
        "--trace [path] writes a Chrome trace (load in Perfetto); --rounds\n"
        "[path] samples per-round process telemetry to JSONL. Values are\n"
        "consumed greedily, so put the spec path before bare toggles.\n\n"
        "--batch N (or an [engine] batch = N section) is accepted for older\n"
        "specs and ignored: campaigns run every trial on the scalar round,\n"
        "and outputs and journals are byte-for-byte the same at any N.\n\n"
        "Distributed campaigns: --serve [PORT] makes this process the\n"
        "coordinator (add --port-file PATH to publish a kernel-assigned\n"
        "port); `scenario_runner --connect HOST:PORT` or the dedicated\n"
        "campaign_worker binary joins as a worker agent. Output files are\n"
        "byte-identical to a single-process run of the same spec.\n\n"
        "flags:\n");
    flags.print_help(std::cout);
    std::printf("\n");
    print_registries();
    return 0;
  }
  if (list) {
    print_registries();
    flags.warn_unconsumed(std::cerr);
    return 0;
  }

  if (!connect.empty()) {
    // Worker agent mode: the coordinator ships the spec, so none is given
    // here — just connect and work until SHUTDOWN.
    std::string host;
    std::uint16_t port = 0;
    if (!parse_host_port(connect, host, port)) {
      std::fprintf(stderr, "error: --connect expects HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 1;
    }
    flags.warn_unconsumed(std::cerr);
    try {
      dist::WorkerOptions options;
      options.host = host;
      options.port = port;
      options.threads =
          threads > 0 ? static_cast<std::size_t>(threads) : 0;
      if (!quiet) options.log = &std::cout;
      const dist::WorkerResult result = dist::run_worker(options);
      std::printf("worker %llu done: %zu shard(s), %zu job(s) executed\n",
                  static_cast<unsigned long long>(result.worker_id),
                  result.shards_completed, result.jobs_executed);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (flags.positionals().empty()) {
    std::fprintf(stderr,
                 "error: no scenario spec given (try --help)\n");
    return 1;
  }
  if (flags.positionals().size() > 1) {
    std::fprintf(stderr,
                 "error: one spec per run, got %zu (campaigns checkpoint "
                 "independently; run them separately)\n",
                 flags.positionals().size());
    return 1;
  }

  try {
    Stopwatch watch;
    const std::string spec_path = flags.positionals().front();
    ScenarioSpec spec = ScenarioSpec::load(spec_path);
    // CLI overrides rewrite the spec before planning so the plan (and its
    // fingerprint) reflects what actually runs.
    if (trials >= 0) spec.set("campaign", "trials", std::to_string(trials));
    if (have_seed_override) {
      spec.set("campaign", "base_seed", std::to_string(base_seed));
    }
    if (threads >= 0) spec.set("campaign", "threads", std::to_string(threads));
    if (batch >= 0) spec.set("engine", "batch", std::to_string(batch));
    // --progress goes through [telemetry] progress and its range check.
    if (have_progress) {
      spec.set("telemetry", "progress",
               progress_value.empty() ? "2" : progress_value);
    }

    CampaignPlan plan = plan_campaign(spec);
    if (plan.output.empty()) plan.output = default_stem(spec_path);
    // Flags override the [telemetry] section after planning — telemetry
    // is out of band, so this cannot change the fingerprint or results.
    if (have_status) {
      parse_telemetry_sink(status_value, plan.telemetry.status,
                           plan.telemetry.status_path);
    }
    if (have_trace) {
      parse_telemetry_sink(trace_value, plan.telemetry.trace,
                           plan.telemetry.trace_path);
    }
    if (have_rounds) {
      parse_telemetry_sink(rounds_value, plan.telemetry.rounds,
                           plan.telemetry.rounds_path);
    }

    if (dry_run) {
      TelemetryConfig telemetry = plan.telemetry;
      telemetry.resolve_paths(!output.empty() ? output : plan.output);
      std::printf("campaign '%s': %zu jobs x %zu trials, base_seed=%llu, "
                  "output stem '%s', telemetry sinks: %s\n",
                  plan.name.c_str(), plan.jobs.size(), plan.trials,
                  static_cast<unsigned long long>(plan.base_seed),
                  plan.output.c_str(),
                  telemetry.sinks_description().c_str());
      // Per-job estimated peak graph memory (n, 2m, offset width, weight
      // array, alias tables) so an overnight campaign can be
      // sanity-checked against RAM up front.
      GraphMemoryEstimate peak;
      std::uint64_t peak_total = 0;
      std::uint64_t peak_alias = 0;
      std::size_t peak_job = 0;
      bool any_unknown = false;
      for (const JobSpec& job : plan.jobs) {
        const GraphMemoryEstimate est = estimate_graph_memory(job.graph);
        // weighted=1 jobs lazily build the per-vertex alias tables:
        // endpoints * 8 bytes (float prob + u32 alias) on top of the
        // weight array.
        const std::string* weighted = find_param(job.process, "weighted");
        const std::uint64_t alias_bytes =
            (weighted != nullptr && *weighted != "0") ? est.endpoints * 8
                                                      : 0;
        // The fault session workspace is per-process (per worker thread);
        // fold one session into the job's memory line so fault campaigns
        // sanity-check like weighted ones do.
        const std::uint64_t fault_bytes =
            job.faults.empty()
                ? 0
                : fault_session_bytes(parse_fault_options(job.faults), est.n);
        // Telemetry buffers (metrics shards, trace reserve, rounds
        // recorder) scale with threads and the job's round budget, not
        // with the graph — but they are resident alongside it.
        std::uint64_t round_limit = 4096;
        if (const std::string* rounds_param =
                find_param(job.process, "max_rounds")) {
          round_limit = static_cast<std::uint64_t>(
              std::strtoull(rounds_param->c_str(), nullptr, 10));
          if (round_limit == 0) round_limit = 4096;
        }
        const std::uint64_t telemetry_bytes =
            telemetry_buffer_bytes(telemetry, plan.threads, round_limit);
        std::printf("  job %zu seed=%llu graph{%s} process{%s}", job.index,
                    static_cast<unsigned long long>(job.seed_index),
                    canonical_params(job.graph).c_str(),
                    canonical_params(job.process).c_str());
        if (!job.faults.empty()) {
          std::printf(" faults{%s}", canonical_params(job.faults).c_str());
        }
        if (est.known) {
          // Mapped (file-backed) bytes don't compete for RAM the way owned
          // arrays do — report them separately and rank the peak by the
          // resident portion.
          const std::uint64_t total = est.resident_bytes() + alias_bytes +
                                      fault_bytes + telemetry_bytes;
          std::printf(" mem~%s resident", human_bytes(total).c_str());
          if (est.mapped_bytes > 0) {
            std::printf(" + %s mapped", human_bytes(est.mapped_bytes).c_str());
          }
          std::printf(" (n=%llu, 2m=%llu, offsets=%zu-bit",
                      static_cast<unsigned long long>(est.n),
                      static_cast<unsigned long long>(est.endpoints),
                      est.offset_bytes * 8);
          if (est.weight_bytes > 0) {
            std::printf(", weights +%s",
                        human_bytes(est.weight_bytes).c_str());
          }
          if (alias_bytes > 0) {
            std::printf(", alias +%s", human_bytes(alias_bytes).c_str());
          }
          if (fault_bytes > 0) {
            std::printf(", faults +%s", human_bytes(fault_bytes).c_str());
          }
          if (telemetry_bytes > 0) {
            std::printf(", telemetry +%s",
                        human_bytes(telemetry_bytes).c_str());
          }
          std::printf(")\n");
          if (total > peak_total) {
            peak = est;
            peak_total = total;
            peak_alias = alias_bytes;
            peak_job = job.index;
          }
        } else {
          std::printf(" mem~? (family=file or malformed params)\n");
          any_unknown = true;
        }
      }
      if (peak.known) {
        std::printf("estimated peak graph memory: %s (job %zu, n=%llu, "
                    "2m=%llu, offsets=%zu-bit%s)%s\n",
                    human_bytes(peak_total).c_str(), peak_job,
                    static_cast<unsigned long long>(peak.n),
                    static_cast<unsigned long long>(peak.endpoints),
                    peak.offset_bytes * 8,
                    peak.weight_bytes + peak_alias > 0 ? ", weighted" : "",
                    any_unknown ? "  [some jobs unknown]" : "");
      }
      flags.warn_unconsumed(std::cerr);
      return 0;
    }

    if (have_serve) {
      // Coordinator mode: lease shards to --connect'ed workers and merge
      // their result frames; sinks come out byte-identical to a local run.
      std::int64_t port_value = 0;
      if (!serve_value.empty() &&
          (!parse_integer(serve_value, port_value) || port_value < 0 ||
           port_value > 65535)) {
        std::fprintf(stderr,
                     "error: --serve expects a port (0 or omitted = "
                     "kernel-assigned), got '%s'\n",
                     serve_value.c_str());
        return 1;
      }
      dist::CoordinatorOptions serve_options;
      serve_options.port = static_cast<std::uint16_t>(port_value);
      serve_options.shard_size =
          shard_size > 0 ? static_cast<std::size_t>(shard_size) : 0;
      serve_options.lease_timeout_seconds = lease_timeout;
      serve_options.resume = !fresh;
      serve_options.output = output;
      if (!quiet) serve_options.log = &std::cout;
      const std::string stem = !output.empty() ? output : plan.output;
      TelemetryConfig telemetry = plan.telemetry;
      if (telemetry.progress_interval > 0.0 || telemetry.status) {
        telemetry.resolve_paths(stem);
        serve_options.status_path = telemetry.status_path;
      }
      if (telemetry.progress_interval > 0.0) {
        serve_options.progress_interval = telemetry.progress_interval;
        serve_options.heartbeat = &std::cerr;
      }
      flags.warn_unconsumed(std::cerr);

      dist::Coordinator coordinator(plan, spec.render(), serve_options);
      if (!port_file.empty()) {
        std::ofstream pf(port_file, std::ios::trunc);
        pf << coordinator.port() << "\n";
        if (!pf) {
          std::fprintf(stderr, "error: cannot write --port-file %s\n",
                       port_file.c_str());
          return 1;
        }
      }
      std::printf("serving campaign '%s' (%zu jobs) on 127.0.0.1:%u\n",
                  plan.name.c_str(), plan.jobs.size(),
                  static_cast<unsigned>(coordinator.port()));
      std::fflush(stdout);  // launcher scripts wait for this line

      const dist::CoordinatorResult served = coordinator.serve();
      std::printf("campaign '%s': %zu/%zu jobs done (%zu resumed, %zu "
                  "merged from %zu worker(s)) in %.1fs; %zu duplicate "
                  "frame(s) dropped, %zu requeue(s)\n",
                  plan.name.c_str(), served.resumed + served.merged,
                  plan.jobs.size(), served.resumed, served.merged,
                  served.workers_served, watch.seconds(),
                  served.duplicates, served.requeues);
      if (served.complete) {
        std::printf("wrote %s.jsonl and %s.csv\n", stem.c_str(),
                    stem.c_str());
      }
      return 0;
    }

    CampaignOptions options;
    options.output = output;
    options.resume = !fresh;
    options.max_jobs = static_cast<std::size_t>(max_jobs < 0 ? 0 : max_jobs);
    if (!quiet) options.progress = &std::cout;

    flags.warn_unconsumed(std::cerr);
    const CampaignResult result = run_campaign(plan, options);

    const std::string stem = !output.empty() ? output : plan.output;
    std::printf("campaign '%s': %zu/%zu jobs done (%zu resumed, %zu run "
                "now) in %.1fs\n",
                plan.name.c_str(), result.resumed + result.executed,
                plan.jobs.size(), result.resumed, result.executed,
                watch.seconds());
    if (result.complete) {
      std::printf("wrote %s.jsonl and %s.csv", stem.c_str(), stem.c_str());
      if (result.all_rounds.count() > 0) {
        std::printf("  (all completed trials: rounds mean=%s min=%s max=%s "
                    "n=%zu)",
                    format_double(result.all_rounds.mean()).c_str(),
                    format_double(result.all_rounds.min()).c_str(),
                    format_double(result.all_rounds.max()).c_str(),
                    result.all_rounds.count());
      }
      std::printf("\n");
    } else {
      std::printf("campaign checkpointed at %s.journal; rerun the same "
                  "command to resume\n", stem.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

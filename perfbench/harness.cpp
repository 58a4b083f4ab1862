// SPDX-License-Identifier: MIT
//
// Campaign benchmark harness (driven by perfbench/run.py):
//
//   perfbench_harness time  --out DIR [--threads N] SPEC...
//   perfbench_harness trace --out DIR [--trace-json FILE] SPEC...
//   perfbench_harness info
//
// `time` parses and plans each spec (repeatedly, for a stable set-up time),
// runs it once through run_campaign into a fresh output stem and prints one
// JSON object: set-up and campaign seconds, trial counts and VmHWM. One
// process per timed campaign, so VmHWM is that campaign's peak.
//
// `trace` splits the same campaigns by layer without touching src/. Spans
// (name, start, end, parent, job) are recorded here, around the calls into
// each module's public functions:
//   * replay   — the plan re-executed on this harness's own ThreadPool:
//                GraphCache::acquire with build_campaign_graph as builder,
//                execute_campaign_job, Journal::append (lock wait timed
//                apart) and write_campaign_sinks;
//   * probe    — make_process + Process::run per trial (with a FaultModel
//                for the faulty probe) and make_batched_engine(.., 32)
//                ->run_block on the same trial seeds;
//   * solo     — every distinct graph rebuilt with nothing else running;
//   * alias    — first Graph::alias_tables() on a fresh weighted instance;
//   * program  — run_campaign with its own [telemetry] trace+status on/off;
//   * fabric   — dist::Coordinator serving two loopback dist::run_worker.
// It prints raw samples as JSON (run.py turns them into metrics) and
// writes the spans as Chrome trace JSON (loads in Perfetto).
//
// Exit codes: 0 ok, 2 usage, 3 contract violation (non-Release build,
// resumed or incomplete campaign), 4 any exception.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/faults.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "graph/weights.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "sim/batched.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"
#include "util/build_info.hpp"

namespace {

using namespace cobra;
using scenario::CampaignOptions;
using scenario::CampaignPlan;
using scenario::JobResult;
using scenario::JobSpec;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kProbeBatch = 32;
/// Scalar probe trials run until kProbeBatch or this budget (at least 4).
constexpr double kProbeSeconds = 1.0;
/// Parse + plan repetitions run for this long per process: a
/// sub-millisecond step needs many samples for a stable median.
constexpr double kSetupSeconds = 0.1;
/// Telemetry off/on campaign pairs in the traced run.
constexpr std::size_t kTelemetryPairs = 2;
constexpr const char* kProbeProcesses[] = {"cobra", "bips", "push-pull",
                                           "push"};
constexpr const char* kFaultyProbeProcesses[] = {"push-pull", "push"};

struct ContractError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::uint64_t kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %" SCNu64 " kB", &kib) == 1) {
      return kib;
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool same_sinks(const std::string& a, const std::string& b) {
  return read_file(a + ".jsonl") == read_file(b + ".jsonl") &&
         read_file(a + ".csv") == read_file(b + ".csv") &&
         !read_file(a + ".jsonl").empty();
}

// ---- minimal JSON writer ----

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

/// Builds one JSON object field by field; values are pre-rendered.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  JsonObject& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  JsonObject& flag(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    return raw(key, json_array(v));
  }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ',';
      out += json_string(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- spans ----

/// In-memory span log. Spans nest per thread through a thread-local stack
/// of open spans; a span opened without a job id inherits its parent's.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t id;
    std::int64_t parent;  ///< -1 = root
    std::int64_t job;     ///< -1 = not tied to a job
    std::uint32_t tid;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  std::int64_t next_id() { return next_id_.fetch_add(1); }
  void record(const Span& span) {
    std::lock_guard lock(mutex_);
    spans_.push_back(span);
  }
  std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

  /// Self time per span name (span minus the time its children cover),
  /// in milliseconds, summed over all spans of that name.
  std::map<std::string, double> self_ms() const {
    const std::vector<Span> all = spans();
    std::map<std::int64_t, double> child_us;
    for (const Span& s : all) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (const Span& s : all) {
      const auto it = child_us.find(s.id);
      const double children = it == child_us.end() ? 0.0 : it->second;
      out[s.name] += (s.end_us - s.start_us - children) / 1000.0;
    }
    return out;
  }

  /// Chrome trace-event JSON: complete ("X") events sorted per thread by
  /// start (longer first on ties, so parents precede children), plus one
  /// thread_name metadata event per thread.
  bool write_chrome(const std::string& path) const {
    std::vector<Span> all = spans();
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start_us != b.start_us) return a.start_us < b.start_us;
      return a.end_us - a.start_us > b.end_us - b.start_us;
    });
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::vector<std::uint32_t> tids;
    bool first = true;
    for (const Span& s : all) {
      if (tids.empty() || tids.back() != s.tid) tids.push_back(s.tid);
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      out << (first ? "" : ",") << "\n{\"name\":" << json_string(name)
          << ",\"cat\":" << json_string(layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << json_number(s.start_us)
          << ",\"dur\":" << json_number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}}";
      first = false;
    }
    for (const std::uint32_t tid : tids) {
      out << (first ? "" : ",")
          << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << tid << ",\"args\":{\"name\":\"participant " << tid << "\"}}";
      first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

struct OpenSpan {
  std::int64_t id;
  std::int64_t job;
};
thread_local std::vector<OpenSpan> t_open_spans;
std::atomic<std::uint32_t> g_next_tid{0};
thread_local const std::uint32_t t_tid = g_next_tid.fetch_add(1);

/// RAII span. Always measures its own duration (elapsed_ms); records into
/// the tracer only when one is given.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t job = -1)
      : tracer_(tracer), name_(name), start_(Clock::now()) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->next_id();
    parent_ = t_open_spans.empty() ? -1 : t_open_spans.back().id;
    job_ = job >= 0 || t_open_spans.empty() ? job : t_open_spans.back().job;
    start_us_ = tracer_->now_us();
    t_open_spans.push_back({id_, job_});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_ == nullptr) return;
    t_open_spans.pop_back();
    tracer_->record(
        {name_, id_, parent_, job_, t_tid, start_us_, tracer_->now_us()});
  }

  double elapsed_ms() const { return seconds_since(start_) * 1000.0; }

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point start_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
  std::int64_t job_ = -1;
  double start_us_ = 0.0;
};

// ---- plan helpers ----

struct Planned {
  CampaignPlan plan;
  std::vector<double> setup_s;  ///< one entry per parse + plan repetition
};

/// Parses and plans `path` repeatedly for kSetupSeconds (5 to 2000
/// repetitions).
Planned plan_repeated(const std::string& path) {
  Planned out;
  const auto begin = Clock::now();
  while (out.setup_s.size() < 5 ||
         (out.setup_s.size() < 2000 && seconds_since(begin) < kSetupSeconds)) {
    const auto start = Clock::now();
    const ScenarioSpec spec = ScenarioSpec::load(path);
    CampaignPlan plan = scenario::plan_campaign(spec);
    out.setup_s.push_back(seconds_since(start));
    out.plan = std::move(plan);
  }
  return out;
}

std::string stem_for(const std::string& dir, const CampaignPlan& plan,
                     const std::string& tag) {
  return (std::filesystem::path(dir) / (plan.name + "." + tag)).string();
}

/// run_campaign on a fresh stem with resume = false; asserts every job ran
/// in this invocation (a restored journal must never count as a fast run).
struct Timed {
  double seconds = 0.0;
  std::size_t trials = 0;
  std::size_t failed = 0;
};
Timed run_fresh(const CampaignPlan& plan, const std::string& stem,
                std::size_t threads) {
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::filesystem::remove(stem + ext);
  }
  CampaignOptions options;
  options.output = stem;
  options.resume = false;
  options.threads = threads;
  const auto start = Clock::now();
  const scenario::CampaignResult result = scenario::run_campaign(plan, options);
  Timed out;
  out.seconds = seconds_since(start);
  if (!result.complete || result.resumed != 0 ||
      result.executed != plan.jobs.size()) {
    throw ContractError("campaign '" + plan.name + "' executed " +
                        std::to_string(result.executed) + " of " +
                        std::to_string(plan.jobs.size()) + " jobs (resumed " +
                        std::to_string(result.resumed) + ")");
  }
  for (const auto& job : result.jobs) {
    out.trials += job->trials;
    out.failed += job->failed;
  }
  return out;
}

/// The campaign's per-job trial seed (campaign.hpp's determinism
/// contract: trial t of job j draws from Rng::for_trial(mix(base, j), t)).
std::uint64_t job_seed(const CampaignPlan& plan, const JobSpec& job) {
  SplitMix64 sm(plan.base_seed ^ (0x632be59bd9b4e019ULL * (job.index + 1)));
  return sm.next();
}

std::size_t param_n(const JobSpec& job) {
  const std::string* n = scenario::find_param(job.graph, "n");
  if (n != nullptr) return std::stoull(*n);
  return scenario::estimate_graph_memory(job.graph).n;
}

// ---- time mode ----

int run_time(const std::string& out_dir,
             std::optional<std::size_t> threads_override,
             const std::vector<std::string>& specs) {
  std::string spec_json = "[";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Planned planned = plan_repeated(specs[i]);
    const CampaignPlan& plan = planned.plan;
    const std::size_t threads = threads_override.value_or(plan.threads);
    const std::string stem = stem_for(out_dir, plan, "run");
    const Timed timed = run_fresh(plan, stem, threads);
    if (i > 0) spec_json += ',';
    spec_json += JsonObject()
                     .str("name", plan.name)
                     .str("stem", stem)
                     .num("jobs", static_cast<double>(plan.jobs.size()))
                     .num("threads", static_cast<double>(threads))
                     .num("trials", static_cast<double>(timed.trials))
                     .num("failed", static_cast<double>(timed.failed))
                     .num("campaign_s", timed.seconds)
                     .list("setup_s", planned.setup_s)
                     .render();
  }
  spec_json += "]";
  std::cout << JsonObject()
                   .str("build", build_info_string())
                   .num("vm_hwm_kib", static_cast<double>(vm_hwm_kib()))
                   .raw("specs", spec_json)
                   .render()
            << std::endl;
  return 0;
}

// ---- trace mode: replay ----

struct Replay {
  double wall_s = 0.0;
  std::size_t participants = 1;
  std::vector<std::optional<JobResult>> results;
  std::map<std::string, double> build_ms;  ///< per cache key
  std::uint64_t build_edges = 0;
  std::uint64_t max_graph_bytes = 0;
  double cache_wait_ms = 0.0;
  std::vector<double> append_ms;
  double lock_wait_ms = 0.0;
  double sink_flush_ms = 0.0;
  std::vector<ThreadPool::WorkerTelemetry> pool;
};

/// Re-executes the plan the way run_campaign does, through the same public
/// calls, with a span around each.
Replay replay_campaign(const CampaignPlan& plan, const std::string& stem,
                       std::size_t threads, Tracer* tracer) {
  Replay out;
  out.results.assign(plan.jobs.size(), std::nullopt);
  std::mutex stats_mutex;  // guards every `out` field the workers touch
  const auto start = Clock::now();
  scenario::GraphCache cache([&](const JobSpec& job) {
    Scope span(tracer, "graph.build");
    Graph g = scenario::build_campaign_graph(plan, job);
    const double ms = span.elapsed_ms();
    std::lock_guard lock(stats_mutex);
    out.build_ms[scenario::GraphCache::key_for(job)] = ms;
    out.build_edges += g.num_edges();
    out.max_graph_bytes =
        std::max<std::uint64_t>(out.max_graph_bytes, g.memory_bytes());
    return g;
  });
  for (const JobSpec& job : plan.jobs) cache.expect(job);
  scenario::Journal journal(stem + ".journal", plan, /*resume=*/false);
  std::mutex journal_mutex;  // guards `journal`, as run_campaign's mutex does
  std::string first_error;

  const auto body = [&](std::size_t index) {
    const JobSpec& job = plan.jobs[index];
    try {
      Scope job_span(tracer, "scenario.job", static_cast<std::int64_t>(index));
      double acquire_ms = 0.0;
      scenario::GraphCache::Acquired acquired;
      {
        Scope span(tracer, "scenario.cache_acquire");
        acquired = cache.acquire(job);
        acquire_ms = span.elapsed_ms();
      }
      const double built_ms = std::max(0.0, acquired.built_seconds * 1000.0);
      std::shared_ptr<const Graph> graph = std::move(acquired.graph);
      if (acquired.built_seconds >= 0.0) {
        // run_campaign journals every build as a note frame.
        std::lock_guard lock(journal_mutex);
        Scope span(tracer, "scenario.journal_note");
        journal.note("graph " + scenario::GraphCache::key_for(job) +
                     " name=" + graph->name() + " build_seconds=" +
                     scenario::format_double(acquired.built_seconds));
      }
      JobResult result;
      {
        Scope span(tracer, "core.execute_job");
        result = scenario::execute_campaign_job(plan, job, *graph);
      }
      graph.reset();
      cache.release(job);
      const auto wait_start = Clock::now();
      std::lock_guard lock(journal_mutex);
      const double wait_ms = seconds_since(wait_start) * 1000.0;
      double append_ms = 0.0;
      {
        Scope span(tracer, "scenario.journal_append");
        journal.append(job.index, result);
        append_ms = span.elapsed_ms();
      }
      std::lock_guard stats_lock(stats_mutex);
      out.cache_wait_ms += std::max(0.0, acquire_ms - built_ms);
      out.lock_wait_ms += wait_ms;
      out.append_ms.push_back(append_ms);
      out.results[index] = std::move(result);
    } catch (const std::exception& e) {
      std::lock_guard lock(stats_mutex);
      if (first_error.empty()) {
        first_error = "job " + std::to_string(index) + ": " + e.what();
      }
    }
  };

  if (threads == 0) {
    const auto busy_start = Clock::now();
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) body(i);
    ThreadPool::WorkerTelemetry caller;
    caller.busy_seconds = seconds_since(busy_start);
    out.pool.push_back(caller);
  } else {
    ThreadPool pool(threads);
    pool.enable_telemetry();
    pool.parallel_for(plan.jobs.size(), body);
    out.pool = pool.telemetry();
  }
  out.participants = threads + 1;
  if (!first_error.empty()) throw std::runtime_error(first_error);
  {
    Scope span(tracer, "scenario.sink_flush");
    scenario::write_campaign_sinks(plan, out.results, stem);
    out.sink_flush_ms = span.elapsed_ms();
  }
  out.wall_s = seconds_since(start);
  return out;
}

// ---- trace mode: probe ----

struct Probe {
  std::vector<double> trial_ms;
  std::uint64_t tx = 0;
  std::vector<double> batched_trial_ms;  ///< per-trial share of each block
  std::string batched_na;
  bool bitwise = true;
  std::vector<double> faulty_trial_ms;
};

/// The instance and parameters a probe runs on. Preference order: the
/// largest job of the plan running `process` with a matching fault state
/// (its own params, instance and faults); the largest fault-free job
/// running it; the largest fault-free job of any process, with `process`'s
/// registry defaults. A faulty probe without a faulty job of its own gets
/// `drop = 0.2`.
struct ProbeCell {
  const JobSpec* job = nullptr;
  scenario::ParamMap process;
  scenario::ParamMap faults;
};
ProbeCell probe_cell(const CampaignPlan& plan, const std::string& process,
                     bool faulty) {
  const auto largest = [&plan](const auto& accept) -> const JobSpec* {
    const JobSpec* best = nullptr;
    for (const JobSpec& job : plan.jobs) {
      if (accept(job) && (best == nullptr || param_n(job) > param_n(*best))) {
        best = &job;
      }
    }
    return best;
  };
  const auto runs = [&process](const JobSpec& job) {
    const std::string* name = scenario::find_param(job.process, "name");
    return name != nullptr && *name == process;
  };
  ProbeCell cell;
  if (faulty) {
    cell.job = largest(
        [&](const JobSpec& job) { return runs(job) && !job.faults.empty(); });
    if (cell.job != nullptr) {
      cell.process = cell.job->process;
      cell.faults = cell.job->faults;
      return cell;
    }
  }
  cell.job = largest(
      [&](const JobSpec& job) { return runs(job) && job.faults.empty(); });
  if (cell.job != nullptr) {
    cell.process = cell.job->process;
  } else {
    cell.job = largest([](const JobSpec& job) { return job.faults.empty(); });
    if (cell.job == nullptr) cell.job = &plan.jobs.front();
    cell.process = {{"name", process}, {"record_curve", "0"}};
    const std::string* weighted =
        scenario::find_param(cell.job->process, "weighted");
    if (weighted != nullptr &&
        scenario::find_param(cell.job->graph, "weight") != nullptr) {
      cell.process.push_back({"weighted", *weighted});
    }
  }
  if (faulty) cell.faults = {{"drop", "0.2"}};
  return cell;
}

/// Runs scalar trials of `process` on the cell's instance, then the same
/// trial seeds through the batched engine; the two result vectors must
/// match bitwise.
Probe run_probe(const CampaignPlan& plan, const std::string& process,
                Tracer* tracer) {
  Probe out;
  const ProbeCell cell = probe_cell(plan, process, /*faulty=*/false);
  Scope probe_span(tracer, "core.probe",
                   static_cast<std::int64_t>(cell.job->index));
  std::shared_ptr<const Graph> g;
  {
    Scope span(tracer, "graph.build");
    g = scenario::build_job_graph(plan, *cell.job);
  }
  const std::vector<Vertex> starts = spreadable_starts(*g);
  const std::uint64_t seed = job_seed(plan, *cell.job);
  std::vector<SpreadResult> scalar;
  const auto begin = Clock::now();
  while (scalar.size() < kProbeBatch &&
         (scalar.size() < 4 || seconds_since(begin) < kProbeSeconds)) {
    const std::size_t t = scalar.size();
    Scope span(tracer, "core.trial");
    const auto p = scenario::make_process(*g, cell.process);
    scalar.push_back(
        p->run(Rng::for_trial(seed, t), starts[t % starts.size()]));
    out.trial_ms.push_back(span.elapsed_ms());
    out.tx += scalar.back().total_transmissions;
  }
  const auto prototype = scenario::make_process(*g, cell.process);
  const auto engine = make_batched_engine(*prototype, kProbeBatch);
  if (engine == nullptr) {
    out.batched_na = "make_batched_engine returned nullptr for " + process;
  } else {
    std::vector<SpreadResult> batched(scalar.size());
    Scope span(tracer, "sim.run_block");
    engine->run_block(seed, 0, scalar.size(), starts, batched.data());
    out.batched_trial_ms.assign(
        scalar.size(), span.elapsed_ms() / static_cast<double>(scalar.size()));
    out.bitwise = batched == scalar;
  }

  const bool has_faulty_probe =
      std::find(std::begin(kFaultyProbeProcesses),
                std::end(kFaultyProbeProcesses),
                process) != std::end(kFaultyProbeProcesses);
  if (!has_faulty_probe) return out;
  const ProbeCell faulty = probe_cell(plan, process, /*faulty=*/true);
  std::shared_ptr<const Graph> fg = g;
  if (faulty.job != cell.job) {
    Scope span(tracer, "graph.build");
    fg = scenario::build_job_graph(plan, *faulty.job);
  }
  const std::vector<Vertex> fstarts = spreadable_starts(*fg);
  const std::uint64_t fseed = job_seed(plan, *faulty.job);
  const FaultModel model(fg->num_vertices(),
                         parse_fault_options(faulty.faults));
  const auto fbegin = Clock::now();
  while (out.faulty_trial_ms.size() < kProbeBatch &&
         (out.faulty_trial_ms.size() < 4 ||
          seconds_since(fbegin) < kProbeSeconds)) {
    const std::size_t t = out.faulty_trial_ms.size();
    Scope span(tracer, "core.faulty_trial");
    const auto p = scenario::make_process(*fg, faulty.process);
    p->set_fault_model(&model);
    (void)p->run(Rng::for_trial(fseed, t), fstarts[t % fstarts.size()]);
    out.faulty_trial_ms.push_back(span.elapsed_ms());
  }
  return out;
}

// ---- trace mode: fabric ----

struct Fabric {
  double wall_s = 0.0;
  std::size_t workers_served = 0;
  std::string error;
};

Fabric run_fabric(const ScenarioSpec& spec, const CampaignPlan& plan,
                  const std::string& stem) {
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::filesystem::remove(stem + ext);
  }
  dist::CoordinatorOptions options;
  options.output = stem;
  options.resume = false;
  const auto start = Clock::now();
  dist::Coordinator coordinator(plan, spec.render(), options);
  dist::WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  // Two participants per worker (a 1-thread pool plus the worker's own
  // thread), so the fabric runs as many concurrent jobs as the pool.
  worker_options.threads = 1;
  Fabric out;
  std::string worker_errors[2];  // one slot per worker thread
  std::vector<std::thread> workers;
  for (std::string& error : worker_errors) {
    workers.emplace_back([&worker_options, &error] {
      try {
        (void)dist::run_worker(worker_options);
      } catch (const std::exception& e) {
        error = std::string("worker: ") + e.what();
      }
    });
  }
  try {
    const dist::CoordinatorResult served = coordinator.serve();
    out.workers_served = served.workers_served;
    if (!served.complete) out.error = "fabric campaign incomplete";
  } catch (const std::exception& e) {
    coordinator.stop();
    out.error = std::string("coordinator: ") + e.what();
  }
  for (auto& w : workers) w.join();
  out.wall_s = seconds_since(start);
  for (const std::string& error : worker_errors) {
    if (out.error.empty()) out.error = error;
  }
  return out;
}

// ---- trace mode ----

int run_trace(const std::string& out_dir, const std::string& trace_json,
              const std::vector<std::string>& specs) {
  Tracer tracer;
  std::string spec_json = "[";
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const Planned planned = plan_repeated(specs[si]);
    const CampaignPlan& plan = planned.plan;
    const std::size_t threads = plan.threads;
    JsonObject obj;
    obj.str("name", plan.name)
        .num("jobs", static_cast<double>(plan.jobs.size()))
        .num("threads", static_cast<double>(threads))
        .list("plan_s", planned.setup_s);

    // Program telemetry off/on, alternating; the off runs are the untraced
    // baseline every overhead ratio divides by.
    CampaignPlan telemetry_plan = plan;
    telemetry_plan.telemetry.trace = true;
    telemetry_plan.telemetry.status = true;
    std::vector<double> off_s;
    std::vector<double> on_s;
    const std::string ref_stem = stem_for(out_dir, plan, "ref");
    const std::string tel_stem = stem_for(out_dir, plan, "telemetry");
    std::size_t failed_trials = 0;
    std::size_t trials = 0;
    (void)run_fresh(plan, ref_stem, threads);  // warm-up, untimed
    for (std::size_t p = 0; p < kTelemetryPairs; ++p) {
      const Timed off = run_fresh(plan, ref_stem, threads);
      off_s.push_back(off.seconds);
      failed_trials = off.failed;
      trials = off.trials;
      on_s.push_back(run_fresh(telemetry_plan, tel_stem, threads).seconds);
    }
    const bool telemetry_identical = same_sinks(ref_stem, tel_stem);
    obj.list("campaign_off_s", off_s)
        .list("campaign_on_s", on_s)
        .num("trials", static_cast<double>(trials))
        .num("failed_trials", static_cast<double>(failed_trials));

    // Replay, traced, on the campaign's own thread count.
    const std::string replay_stem = stem_for(out_dir, plan, "replay");
    Replay replay;
    {
      Scope span(&tracer, "bench.replay");
      replay = replay_campaign(plan, replay_stem, threads, &tracer);
    }
    const bool replay_identical = same_sinks(ref_stem, replay_stem);
    std::vector<double> busy_s;
    double queue_wait_ms = 0.0;
    for (const auto& w : replay.pool) {
      busy_s.push_back(w.busy_seconds);
      queue_wait_ms += w.queue_wait_seconds * 1000.0;
    }
    std::vector<double> build_ms;
    double build_ms_sum = 0.0;
    for (const auto& [key, ms] : replay.build_ms) {
      build_ms.push_back(ms);
      build_ms_sum += ms;
    }
    obj.num("replay_wall_s", replay.wall_s)
        .num("participants", static_cast<double>(replay.participants))
        .list("busy_s", busy_s)
        .num("queue_wait_ms", queue_wait_ms)
        .list("build_ms", build_ms)
        .num("build_edges", static_cast<double>(replay.build_edges))
        .num("graph_bytes", static_cast<double>(replay.max_graph_bytes))
        .num("cache_wait_ms", replay.cache_wait_ms)
        .list("append_ms", replay.append_ms)
        .num("lock_wait_ms", replay.lock_wait_ms)
        .num("sink_flush_ms", replay.sink_flush_ms);

    // Serial replay for parallel efficiency (same tracing cost, separate
    // log so the written trace holds one replay).
    double serial_wall_s = replay.wall_s;
    if (threads > 0) {
      Tracer scratch;
      serial_wall_s = replay_campaign(plan, stem_for(out_dir, plan, "serial"),
                                      0, &scratch)
                          .wall_s;
    }
    obj.num("serial_replay_wall_s", serial_wall_s);

    // Solo builds of every distinct instance, in the replay's key order.
    std::vector<double> solo_ms;
    {
      Scope span(&tracer, "bench.solo_builds");
      std::map<std::string, const JobSpec*> distinct;
      for (const JobSpec& job : plan.jobs) {
        distinct.emplace(scenario::GraphCache::key_for(job), &job);
      }
      for (const auto& [key, job] : distinct) {
        Scope build(&tracer, "graph.solo_build",
                    static_cast<std::int64_t>(job->index));
        (void)scenario::build_campaign_graph(plan, *job);
        solo_ms.push_back(build.elapsed_ms());
      }
    }
    obj.list("solo_build_ms", solo_ms).num("replay_build_ms_sum", build_ms_sum);

    // Alias tables: first call on a fresh weighted instance (the largest
    // fault-free one; weights synthesized when the workload has none).
    {
      Scope span(&tracer, "bench.alias");
      const ProbeCell cell = probe_cell(plan, "cobra", false);
      Graph g = scenario::build_campaign_graph(plan, *cell.job);
      if (!g.is_weighted()) {
        gen::generate_weights(g, gen::WeightKind::kExp, 42);
      }
      Scope alias(&tracer, "rand.alias_tables");
      (void)g.alias_tables();
      obj.num("alias_build_ms", alias.elapsed_ms());
    }

    // Probe pass.
    std::string probe_json = "{";
    bool probes_bitwise = true;
    {
      Scope span(&tracer, "bench.probe");
      bool first = true;
      for (const char* process : kProbeProcesses) {
        const Probe probe = run_probe(plan, process, &tracer);
        probes_bitwise = probes_bitwise && probe.bitwise;
        JsonObject p;
        p.list("trial_ms", probe.trial_ms)
            .num("tx", static_cast<double>(probe.tx))
            .list("batched_trial_ms", probe.batched_trial_ms)
            .str("batched_na", probe.batched_na)
            .flag("bitwise", probe.bitwise)
            .list("faulty_trial_ms", probe.faulty_trial_ms);
        probe_json += std::string(first ? "" : ",") + json_string(process) +
                      ":" + p.render();
        first = false;
      }
    }
    obj.raw("probe", probe_json + "}");

    // Fabric: the same campaign served over loopback.
    const std::string fabric_stem = stem_for(out_dir, plan, "fabric");
    Fabric fabric;
    {
      Scope span(&tracer, "dist.serve");
      fabric = run_fabric(ScenarioSpec::load(specs[si]), plan, fabric_stem);
    }
    const bool fabric_identical =
        fabric.error.empty() && same_sinks(ref_stem, fabric_stem);
    obj.num("dist_wall_s", fabric.wall_s)
        .num("dist_workers", static_cast<double>(fabric.workers_served))
        .str("dist_error", fabric.error);

    obj.raw("checks",
            JsonObject()
                .flag("telemetry_sinks_identical", telemetry_identical)
                .flag("replay_sinks_identical", replay_identical)
                .flag("probe_scalar_batched_bitwise", probes_bitwise)
                .flag("fabric_sinks_identical", fabric_identical)
                .render());
    spec_json += std::string(si > 0 ? "," : "") + obj.render();
  }
  spec_json += "]";

  JsonObject self;
  for (const auto& [name, ms] : tracer.self_ms()) self.num(name, ms);
  const bool wrote = trace_json.empty() || tracer.write_chrome(trace_json);
  std::cout << JsonObject()
                   .str("build", build_info_string())
                   .raw("specs", spec_json)
                   .raw("self_ms", self.render())
                   .render()
            << std::endl;
  return wrote ? 0 : 4;
}

int usage() {
  std::cerr << "usage: perfbench_harness time --out DIR [--threads N] "
               "SPEC...\n"
               "       perfbench_harness trace --out DIR [--trace-json FILE] "
               "SPEC...\n"
               "       perfbench_harness info\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "info") {
    std::cout << JsonObject().str("build", build_info_string()).render()
              << std::endl;
    return 0;
  }
  std::string out_dir;
  std::string trace_json;
  std::optional<std::size_t> threads;
  std::vector<std::string> specs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--trace-json" && has_value) {
      trace_json = argv[++i];
    } else if (arg == "--threads" && has_value) {
      threads = std::stoull(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      specs.push_back(arg);
    }
  }
  if (out_dir.empty() || specs.empty()) return usage();
  // Numbers from an unoptimized build would poison the ledger.
  if (build_flags().rfind("Release", 0) != 0) {
    std::cerr << "perfbench_harness: refusing to measure a non-Release build ("
              << build_flags() << ")\n";
    return 3;
  }
  try {
    std::filesystem::create_directories(out_dir);
    if (mode == "time") {
      return run_time(out_dir, threads, specs);
    }
    if (mode == "trace") return run_trace(out_dir, trace_json, specs);
    return usage();
  } catch (const ContractError& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 4;
  }
}

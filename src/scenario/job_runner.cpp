// SPDX-License-Identifier: MIT
#include "scenario/job_runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>

#include "core/faults.hpp"
#include "obs/rounds.hpp"
#include "obs/trace.hpp"
#include "sim/batched.hpp"
#include "sim/sweep.hpp"
#include "stats/quantile.hpp"
#include "util/stopwatch.hpp"

namespace cobra::scenario {

namespace {

/// The per-trial fields a job's aggregate reads: a SpreadResult without its
/// curve, kept until the job's last trial finishes.
struct TrialRecord {
  bool completed = false;
  std::size_t rounds = 0;
  std::uint64_t total_transmissions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_channel = 0;
  std::uint64_t blocked_receiver = 0;
  double energy = 0.0;
};

TrialRecord record_of(const SpreadResult& trial) {
  return {trial.completed,
          trial.rounds,
          trial.total_transmissions,
          trial.delivered,
          trial.dropped_channel,
          trial.blocked_receiver,
          trial.energy};
}

/// A started job, shared by every participant working on it.
struct Job {
  const JobSpec* spec = nullptr;
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<FaultModel> faults;  ///< null without [faults]
  std::vector<Vertex> starts;
  std::uint64_t seed = 0;
  std::size_t unit = 1;      ///< trials per claim
  std::size_t recorded = 0;  ///< [0, recorded) run by the opener, observed
  std::atomic<std::size_t> cursor{0};    ///< first unclaimed trial
  std::atomic<std::size_t> finished{0};  ///< trials with a record
  std::vector<TrialRecord> records;      ///< indexed by trial
  Stopwatch watch;

  std::size_t trials() const noexcept { return records.size(); }
  std::size_t unclaimed() const noexcept {
    const std::size_t claimed = cursor.load(std::memory_order_relaxed);
    return claimed < trials() ? trials() - claimed : 0;
  }
};

/// One participant's scratch for one job: its own Process (with the job's
/// fault model attached) and, for a batched job, its own engine.
struct Workspace {
  std::unique_ptr<Process> process;
  std::unique_ptr<BatchedEngine> engine;
  std::vector<SpreadResult> block;

  Workspace(const CampaignPlan& plan, const Job& job,
            std::unique_ptr<Process> process_in)
      : process(std::move(process_in)) {
    if (job.faults != nullptr) process->set_fault_model(job.faults.get());
    // The factory returns nullptr for a fault model or a process without a
    // batched engine; such jobs run scalar, claiming one trial at a time.
    if (plan.batch >= 2) engine = make_batched_engine(*process, plan.batch);
    if (engine != nullptr) block.resize(plan.batch);
  }

  TrialRecord run_one(const Job& job, std::size_t t) {
    return record_of(process->run(Rng::for_trial(job.seed, t),
                                  job.starts[t % job.starts.size()]));
  }

  /// Claims the job's next unit, [first, first + count), and runs it into
  /// job.records; returns count, 0 once every trial is claimed. Batched
  /// per-trial results are bitwise-identical to scalar ones
  /// (sim/batched.hpp).
  std::size_t run_next(Job& job, const JobRunner::Hooks& hooks,
                       std::size_t& first) {
    first = job.cursor.fetch_add(job.unit, std::memory_order_relaxed);
    if (first >= job.trials()) return 0;
    const std::size_t count = std::min(job.unit, job.trials() - first);
    if (hooks.before_trial) {
      for (std::size_t t = first; t < first + count; ++t) {
        hooks.before_trial(*job.spec, t);
      }
    }
    if (engine == nullptr) {
      for (std::size_t t = first; t < first + count; ++t) {
        job.records[t] = run_one(job, t);
      }
      return count;
    }
    engine->run_block(job.seed, first, count, job.starts, block.data());
    for (std::size_t i = 0; i < count; ++i) {
      job.records[first + i] = record_of(block[i]);
    }
    return count;
  }
};

/// Sets up a job on its graph and builds the opener's workspace — in the
/// order the checks used to run: the process, the fault model, the starts.
std::shared_ptr<Job> open_job(const CampaignPlan& plan, const JobSpec& spec,
                              std::shared_ptr<const Graph> graph,
                              std::size_t recorded,
                              std::unique_ptr<Workspace>& workspace) {
  auto job = std::make_shared<Job>();
  job->spec = &spec;
  job->graph = std::move(graph);
  // Qualified: the enclosing cobra:: namespace has the factory overload.
  auto process = scenario::make_process(*job->graph, spec.process);
  if (!spec.faults.empty()) {
    job->faults = std::make_unique<FaultModel>(
        job->graph->num_vertices(), parse_fault_options(spec.faults));
  }
  job->starts = spreadable_starts(*job->graph);
  job->seed = job_trial_seed(plan, spec);
  job->records.resize(plan.trials);
  job->recorded = std::min(recorded, plan.trials);
  job->cursor.store(job->recorded, std::memory_order_relaxed);
  workspace = std::make_unique<Workspace>(plan, *job, std::move(process));
  job->unit = workspace->engine != nullptr ? plan.batch : 1;
  return job;
}

Summary summary_from(const OnlineStats& stream, std::vector<double>& values) {
  Summary summary;
  summary.count = stream.count();
  summary.mean = stream.mean();
  summary.stddev = stream.stddev();
  summary.min = stream.min();
  summary.max = stream.max();
  summary.median = quantile(values, 0.5);
  summary.p90 = quantile(values, 0.9);
  summary.p99 = quantile(values, 0.99);
  return summary;
}

/// Folds a finished job's records, strictly in trial order, into its
/// JobResult.
JobResult aggregate(const Job& job) {
  JobResult result;
  result.trials = job.trials();
  result.graph_name = job.graph->name();
  result.faulty = job.faults != nullptr;
  OnlineStats rounds_stream;
  OnlineStats tx_stream;
  OnlineStats pdr_stream;
  OnlineStats energy_stream;
  std::vector<double> rounds_values;
  std::vector<double> tx_values;
  std::vector<double> pdr_values;
  std::vector<double> energy_values;
  rounds_values.reserve(job.trials());
  tx_values.reserve(job.trials());
  if (result.faulty) {
    pdr_values.reserve(job.trials());
    energy_values.reserve(job.trials());
  }
  for (const TrialRecord& trial : job.records) {
    if (result.faulty) {
      // Raw delivery totals cover every trial, failed ones included —
      // exactly what was spent, not just what succeeded.
      result.delivered += trial.delivered;
      result.dropped += trial.dropped_channel;
      result.blocked += trial.blocked_receiver;
    }
    if (!trial.completed) {
      ++result.failed;
      continue;
    }
    const auto rounds = static_cast<double>(trial.rounds);
    const auto tx = static_cast<double>(trial.total_transmissions);
    rounds_stream.add(rounds);
    tx_stream.add(tx);
    rounds_values.push_back(rounds);
    tx_values.push_back(tx);
    if (result.faulty) {
      // Packet-delivery ratio; a trial that sent nothing (e.g. always
      // down) has no deliveries, so 0 is the honest PDR.
      const double pdr =
          trial.total_transmissions > 0
              ? static_cast<double>(trial.delivered) /
                    static_cast<double>(trial.total_transmissions)
              : 0.0;
      pdr_stream.add(pdr);
      energy_stream.add(trial.energy);
      pdr_values.push_back(pdr);
      energy_values.push_back(trial.energy);
    }
  }
  if (!rounds_values.empty()) {
    result.rounds = summary_from(rounds_stream, rounds_values);
    result.transmissions = summary_from(tx_stream, tx_values);
    if (result.faulty) {
      result.pdr = summary_from(pdr_stream, pdr_values);
      result.energy = summary_from(energy_stream, energy_values);
    }
  }
  return result;
}

/// The shared state of one JobRunner::run().
class Run {
 public:
  Run(const CampaignPlan& plan, const std::vector<std::size_t>& jobs,
      GraphCache& cache, CampaignTelemetry* telemetry,
      const JobRunner::Hooks& hooks)
      : plan_(plan),
        jobs_(jobs),
        cache_(cache),
        telemetry_(telemetry),
        trace_(telemetry != nullptr ? telemetry->trace() : nullptr),
        hooks_(hooks),
        recorded_(telemetry != nullptr && telemetry->rounds() != nullptr
                      ? telemetry->config().rounds_trials
                      : 0) {}

  /// One participant: starts jobs in list order while any is left, then
  /// helps the in-flight job with the most unclaimed trials; returns when
  /// neither is possible or a job failed.
  void participate() {
    while (true) {
      std::size_t index = 0;
      bool starting = false;
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mutex_);
        while (true) {
          if (failed_.load(std::memory_order_relaxed)) return;
          if (next_ < jobs_.size()) {
            index = jobs_[next_++];
            starting = true;
            ++opening_;
            break;
          }
          job = most_unclaimed();
          // A job still being opened may soon have trials to share.
          if (job != nullptr || opening_ == 0) break;
          wake_.wait(lock);
        }
      }
      if (starting) {
        start(plan_.jobs[index]);
      } else if (job != nullptr) {
        help(job);
      } else {
        return;
      }
    }
  }

  /// After every participant returned: releases the cache uses of the
  /// jobs a failure abandoned, then reports the failure.
  void finish() {
    if (!failed_.load(std::memory_order_relaxed)) return;
    for (const auto& job : in_flight_) cache_.release(*job->spec);
    in_flight_.clear();
    for (std::size_t at = next_; at < jobs_.size(); ++at) {
      cache_.release(plan_.jobs[jobs_[at]]);
    }
    throw SpecError(first_error_);
  }

 private:
  std::shared_ptr<Job> most_unclaimed() const {  // caller holds mutex_
    std::shared_ptr<Job> best;
    std::size_t best_left = 0;
    for (const auto& job : in_flight_) {
      const std::size_t left = job->unclaimed();
      if (left > best_left) {
        best = job;
        best_left = left;
      }
    }
    return best;
  }

  std::string job_label(const JobSpec& spec) const {
    return trace_ != nullptr ? "job " + std::to_string(spec.index)
                             : std::string();
  }

  void fail_locked(const JobSpec& spec, const char* what) {
    if (!failed_.load(std::memory_order_relaxed)) {
      first_error_ = "job " + std::to_string(spec.index) + ": " + what;
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  void fail(const JobSpec& spec, const char* what) {
    {
      std::lock_guard lock(mutex_);
      fail_locked(spec, what);
    }
    wake_.notify_all();
  }

  void start(const JobSpec& spec) {
    obs::TraceSpan span(trace_, "job", job_label(spec));
    std::shared_ptr<Job> job;
    std::unique_ptr<Workspace> workspace;
    try {
      GraphCache::Acquired acquired = cache_.acquire(spec);
      if (acquired.built_seconds >= 0.0) {
        if (telemetry_ != nullptr) {
          telemetry_->metrics().add(telemetry_->graph_builds);
          telemetry_->metrics().observe(telemetry_->graph_build_seconds,
                                        acquired.built_seconds);
        }
        if (hooks_.built) {
          std::lock_guard lock(report_mutex_);
          hooks_.built(spec, *acquired.graph, acquired.built_seconds);
        }
      }
      job = open_job(plan_, spec, std::move(acquired.graph), recorded_,
                     workspace);
    } catch (const std::exception& e) {
      cache_.release(spec);
      {
        std::lock_guard lock(mutex_);
        --opening_;
        fail_locked(spec, e.what());
      }
      wake_.notify_all();
      return;
    }
    {
      std::lock_guard lock(mutex_);
      in_flight_.push_back(job);
      --opening_;
    }
    wake_.notify_all();
    work(job, *workspace, /*opener=*/true);
  }

  void help(const std::shared_ptr<Job>& job) {
    obs::TraceSpan span(trace_, "job", job_label(*job->spec));
    std::unique_ptr<Workspace> workspace;
    try {
      workspace = std::make_unique<Workspace>(
          plan_, *job, scenario::make_process(*job->graph, job->spec->process));
    } catch (const std::exception& e) {
      fail(*job->spec, e.what());
      return;
    }
    work(job, *workspace, /*opener=*/false);
  }

  /// Claims and runs units of `job` until none is left; the participant
  /// whose unit completes the job aggregates and reports it.
  void work(const std::shared_ptr<Job>& job, Workspace& workspace,
            bool opener) {
    obs::TraceSpan span(trace_, "trials");
    try {
      if (opener && job->recorded > 0) {
        run_recorded(*job, workspace);
        account(job, 0, job->recorded);
      }
      std::size_t first = 0;
      while (!failed_.load(std::memory_order_relaxed)) {
        const std::size_t count = workspace.run_next(*job, hooks_, first);
        if (count == 0) return;
        account(job, first, count);
      }
    } catch (const std::exception& e) {
      fail(*job->spec, e.what());
    }
  }

  /// The opener's observed trials, run scalar in trial order.
  void run_recorded(Job& job, Workspace& workspace) {
    obs::RoundRecorder recorder(telemetry_->config().rounds_sample_every);
    workspace.process->set_observer(&recorder);
    for (std::size_t t = 0; t < job.recorded; ++t) {
      if (hooks_.before_trial) hooks_.before_trial(*job.spec, t);
      job.records[t] = workspace.run_one(job, t);
      telemetry_->rounds()->append_trial(job.spec->index, t,
                                         recorder.samples());
    }
    workspace.process->set_observer(nullptr);
  }

  /// Counts trials [first, first + count) as finished and completes the
  /// job when they were its last.
  void account(const std::shared_ptr<Job>& job, std::size_t first,
               std::size_t count) {
    if (telemetry_ != nullptr) {
      for (std::size_t t = first; t < first + count; ++t) {
        const TrialRecord& trial = job->records[t];
        telemetry_->metrics().add(telemetry_->trials_done);
        telemetry_->metrics().observe(telemetry_->trial_rounds,
                                      static_cast<double>(trial.rounds));
        if (!trial.completed) {
          telemetry_->metrics().add(telemetry_->trials_failed);
        }
      }
    }
    // acq_rel: the participant finishing the last trial sees every record.
    if (job->finished.fetch_add(count, std::memory_order_acq_rel) + count ==
        job->trials()) {
      complete(job);
    }
  }

  void complete(const std::shared_ptr<Job>& job) {
    const JobSpec& spec = *job->spec;
    JobResult result = aggregate(*job);
    cache_.release(spec);
    {
      std::lock_guard lock(mutex_);
      in_flight_.erase(std::find(in_flight_.begin(), in_flight_.end(), job));
    }
    if (telemetry_ != nullptr) {
      telemetry_->metrics().observe(telemetry_->job_seconds,
                                    job->watch.seconds());
      telemetry_->metrics().add(telemetry_->jobs_done);
    }
    if (hooks_.done) {
      std::lock_guard lock(report_mutex_);
      hooks_.done(spec, std::move(result));
    }
  }

  const CampaignPlan& plan_;
  const std::vector<std::size_t>& jobs_;
  GraphCache& cache_;
  CampaignTelemetry* telemetry_;
  obs::TraceCollector* trace_;
  const JobRunner::Hooks& hooks_;
  const std::size_t recorded_;

  std::mutex mutex_;  ///< guards the scheduler state below
  std::condition_variable wake_;
  std::size_t next_ = 0;     ///< jobs_[next_] is the next job to start
  std::size_t opening_ = 0;  ///< starts between pick and publish
  std::vector<std::shared_ptr<Job>> in_flight_;
  std::atomic<bool> failed_{false};  ///< set under mutex_, read anywhere
  std::string first_error_;

  std::mutex report_mutex_;  ///< serializes the hooks
};

}  // namespace

JobRunner::JobRunner(std::size_t threads, bool pool_telemetry) {
  if (threads == 0) return;
  pool_ = std::make_unique<ThreadPool>(threads);
  if (pool_telemetry) pool_->enable_telemetry();
}

JobRunner::~JobRunner() = default;

void JobRunner::run(const CampaignPlan& plan,
                    const std::vector<std::size_t>& jobs, GraphCache& cache,
                    CampaignTelemetry* telemetry, const Hooks& hooks) {
  for (const std::size_t index : jobs) cache.expect(plan.jobs[index]);
  Run run(plan, jobs, cache, telemetry, hooks);
  if (pool_ == nullptr) {
    run.participate();
  } else {
    pool_->parallel_for(pool_->size() + 1,
                        [&run](std::size_t) { run.participate(); });
  }
  run.finish();
}

std::vector<ThreadPool::WorkerTelemetry> JobRunner::pool_telemetry() const {
  return pool_ != nullptr ? pool_->telemetry()
                          : std::vector<ThreadPool::WorkerTelemetry>{};
}

JobResult execute_campaign_job(const CampaignPlan& plan, const JobSpec& job,
                               const Graph& g) {
  // The runner's one-participant case: no cache, scheduler or telemetry.
  // The aliasing constructor borrows `g` without owning it.
  std::unique_ptr<Workspace> workspace;
  const auto started = open_job(
      plan, job, std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g),
      0, workspace);
  std::size_t first = 0;
  while (workspace->run_next(*started, {}, first) > 0) {
  }
  return aggregate(*started);
}

}  // namespace cobra::scenario

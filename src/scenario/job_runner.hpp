// SPDX-License-Identifier: MIT
//
// Trial-granular job runner: executes a list of campaign jobs on a set of
// participants (a ThreadPool's workers plus the calling thread) and is the
// only trial loop of the campaign layer — run_campaign, the dist worker and
// execute_campaign_job (its one-participant case) all go through it.
//
// Scheduling. Each participant starts the next unstarted job in list order:
// it acquires the job's graph from the GraphCache, builds its workspace
// (the Process, with the job's fault model attached, and a BatchedEngine
// when the job is batched) and publishes the job. Trials are claimed
// through the job's atomic cursor, one fetch_add per claim of `plan.batch`
// trials when the job runs on the batched engine and of one trial
// otherwise. Once every job has been started, a participant with nothing
// to start opens a workspace of its own on the in-flight job with the most
// unclaimed trials and helps it, so a campaign's last large jobs do not
// finish on one core while the others idle: the tail is bounded by one
// claim unit. The scheduler mutex is taken only to start, pick or retire a
// job, never per claim.
//
// Determinism. Trial t of job j draws from Rng::for_trial(job seed, t)
// whichever participant runs it. Finished trials are kept as compact
// records indexed by t, and the participant that completes a job's last
// trial folds them in t order into the JobResult, so results — and with
// them journal frames and JSONL/CSV sinks — are byte-identical at every
// thread count, batch width and telemetry setting. Trials recorded by
// [telemetry] rounds stay on the job's opener, which runs them first with
// its round observer attached.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/telemetry.hpp"
#include "sim/thread_pool.hpp"

namespace cobra::scenario {

class JobRunner {
 public:
  /// `threads` pool workers plus the calling thread participate in every
  /// run(); 0 runs each job serially on the calling thread. With
  /// `pool_telemetry` the pool keeps the per-participant counters that
  /// pool_telemetry() samples.
  explicit JobRunner(std::size_t threads, bool pool_telemetry = false);
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Callbacks of one run(). They are called one at a time, on whichever
  /// participant triggers them; any of them may be empty.
  struct Hooks {
    /// A participant built the job's graph instance (a cache miss) in
    /// `seconds`.
    std::function<void(const JobSpec&, const Graph&, double seconds)> built;
    /// The job's last trial finished; `result` is the job's aggregate.
    std::function<void(const JobSpec&, JobResult&& result)> done;
    /// Runs before every trial on the participant that claimed it. A
    /// throw fails the job exactly as a failing trial does (the runner
    /// tests inject faults through it).
    std::function<void(const JobSpec&, std::size_t trial)> before_trial;
  };

  /// Runs plan.jobs[i] for each i in `jobs`, starting them in that order.
  /// Registers one use of each job's graph with `cache` and releases it
  /// when the job finishes, fails or is abandoned. After the first failure
  /// no participant claims more trials, and run() throws
  /// SpecError("job N: <what>") once all of them have returned; jobs that
  /// finished before that were reported through `done`. `telemetry` may be
  /// null; otherwise it receives the job/trial metrics, the "job" and
  /// "trials" trace spans and the recorded rounds.
  void run(const CampaignPlan& plan, const std::vector<std::size_t>& jobs,
           GraphCache& cache, CampaignTelemetry* telemetry,
           const Hooks& hooks);

  /// Per-participant pool counters (ThreadPool::telemetry): empty when
  /// serial or without `pool_telemetry`. Safe to call during run().
  std::vector<ThreadPool::WorkerTelemetry> pool_telemetry() const;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cobra::scenario

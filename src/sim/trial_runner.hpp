// SPDX-License-Identifier: MIT
//
// Reproducible Monte Carlo trial execution. Each trial i receives
// Rng::for_trial(base_seed, i), so results are a pure function of
// (base_seed, i) — independent of thread count, scheduling, workspace
// reuse, or whether the serial or pooled path ran (tested in
// tests/sim_test.cpp and tests/engine_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "rand/rng.hpp"
#include "sim/thread_pool.hpp"

namespace cobra {

struct TrialOptions {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0xc0b7a5eedULL;
  /// 0 = serial; otherwise pool of this many threads.
  std::size_t threads = 0;
};

/// Runs fn(trial_index, rng) for each trial, collecting the returned
/// results in trial order.
template <typename R>
std::vector<R> run_trials_collect(
    const TrialOptions& options,
    const std::function<R(std::size_t, Rng&)>& fn) {
  std::vector<R> results(options.trials);
  const auto body = [&](std::size_t i) {
    Rng rng = Rng::for_trial(options.base_seed, i);
    results[i] = fn(i, rng);
  };
  if (options.threads == 0) {
    for (std::size_t i = 0; i < options.trials; ++i) body(i);
  } else {
    ThreadPool pool(options.threads);
    pool.parallel_for(options.trials, body);
  }
  return results;
}

/// Workspace variant: every participating thread calls make_workspace()
/// once (it must be thread-safe) and hands the same workspace to each of
/// its trials, so per-trial state — typically a process with O(n) arrays —
/// is constructed once per thread, not once per trial. Because each trial
/// still draws from Rng::for_trial(base_seed, i) and workspaces are
/// reset-on-use, results are identical to the workspace-free variant.
template <typename R, typename Workspace>
std::vector<R> run_trials_collect(
    const TrialOptions& options,
    const std::function<Workspace()>& make_workspace,
    const std::function<R(std::size_t, Rng&, Workspace&)>& fn) {
  std::vector<R> results(options.trials);
  if (options.threads == 0) {
    Workspace workspace = make_workspace();
    for (std::size_t i = 0; i < options.trials; ++i) {
      Rng rng = Rng::for_trial(options.base_seed, i);
      results[i] = fn(i, rng, workspace);
    }
    return results;
  }
  ThreadPool pool(options.threads);
  pool.parallel_for_stateful(options.trials, [&]() {
    // shared_ptr keeps the per-thread body copyable for std::function.
    auto workspace = std::make_shared<Workspace>(make_workspace());
    return [&, workspace](std::size_t i) {
      Rng rng = Rng::for_trial(options.base_seed, i);
      results[i] = fn(i, rng, *workspace);
    };
  });
  return results;
}

/// Unified-process variant: every participating thread builds one Process
/// workspace via make_process (typically a cobra::make_process factory
/// call) and trial i runs it as process->run(Rng::for_trial(base_seed, i),
/// starts[i % starts.size()]). One workspace per thread + reset-on-use
/// keeps per-trial heap allocation at zero for every registered process.
/// `starts` must stay alive for the duration of the call.
std::vector<SpreadResult> run_process_trials(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts);

/// Batched lockstep variant: trials run in blocks of `batch` lanes via
/// the batched engine (sim/batched.hpp) when the process supports one;
/// otherwise this is exactly run_process_trials. Per-trial results are
/// bitwise-identical to run_process_trials for every batch and thread
/// count — each block is a pure function of (base_seed, first trial
/// index), and lane l of a block replays trial first+l's scalar stream.
std::vector<SpreadResult> run_process_trials_batched(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts, std::size_t batch);

}  // namespace cobra

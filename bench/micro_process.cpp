// SPDX-License-Identifier: MIT
//
// M1c — unified-process microbenchmark: every process in the factory
// registry (plus COBRA at k = 1) is driven through the steppable Process
// interface (reset / step / done) for a batch of trials on one expander
// instance, measuring round throughput AND steady-state heap behaviour.
// Every row also gets a stepped leg with a drop = 0.2 FaultModel attached
// (the fault round of the same process). COBRA rows also get a
// Process::run leg, the call campaigns make, which at k = 1 runs the walk
// loop; both legs must run the same rounds. Global
// operator new/delete are overridden with counting shims, so the bench
// proves the workspace-reuse contract end to end: after the first
// (warm-up) trial, every leg performs ZERO allocations. Emits
// machine-readable BENCH_process.json.
//
//   ./micro_process [--scale small|medium|large] [--trials N] [--seed S]
//                   [--n N] [--out BENCH_process.json]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/process_factory.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/rounds.hpp"
#include "rand/rng.hpp"
#include "sim/batched.hpp"
#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"

// ---------------------------------------------------------------------------
// Counting allocator shims. Single-threaded bench, but the counter is
// atomic so incidental library threads cannot corrupt it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cobra;

/// One leg of a row: `trials` trials on a fresh workspace, trial 0 the
/// warm-up.
struct Leg {
  std::size_t completed = 0;
  std::uint64_t warmup_allocations = 0;  ///< trial 0: first-touch growth
  std::uint64_t steady_allocations = 0;  ///< trials 1..T-1 combined
  std::uint64_t total_rounds = 0;        ///< trials 1..T-1
  double steady_seconds = 0;

  double rounds_per_sec() const {
    return steady_seconds > 0
               ? static_cast<double>(total_rounds) / steady_seconds
               : 0;
  }
};

struct BenchRow {
  std::string name;
  std::size_t trials = 0;
  Leg stepped;             ///< reset + step until done
  Leg faulty;              ///< the stepped leg under drop = 0.2
  std::optional<Leg> run;  ///< Process::run; COBRA rows only

  bool allocation_free() const {
    return stepped.steady_allocations == 0 &&
           faulty.steady_allocations == 0 &&
           (!run || run->steady_allocations == 0);
  }
  bool legs_agree() const {
    return !run || (stepped.total_rounds == run->total_rounds &&
                    stepped.completed == run->completed);
  }
};

// ---------------------------------------------------------------------------
// Telemetry-overhead leg: the same trial loop with the campaign's
// telemetry instrumentation attached (metrics counter + histogram update
// per trial, RoundRecorder observer sampling every round) versus bare.
// The rounds *sink* is deliberately excluded — campaigns record only the
// first rounds_trials trials per job, so file writes are not steady
// state. Interleaved repetitions, alternating which leg runs first, with
// min-time-per-leg de-noise the comparison; the gate (<= 3% overhead,
// zero steady allocations) fails the bench's exit status, which CI treats
// as a regression.
// ---------------------------------------------------------------------------

struct TelemetryBench {
  std::size_t trials = 0;
  std::uint64_t steady_allocations = 0;  ///< telemetry legs after warm-up
  double plain_seconds = 0;      ///< min over reps, telemetry detached
  double telemetry_seconds = 0;  ///< min over reps, telemetry attached

  double overhead() const {
    return plain_seconds > 0 ? telemetry_seconds / plain_seconds - 1.0 : 0;
  }
};

TelemetryBench bench_telemetry(const Graph& g, std::uint64_t seed,
                               std::size_t trials, std::size_t reps) {
  ProcessParams params;
  params.emplace_back("record_curve", "0");
  const auto process = make_process(g, "cobra", params);
  const std::size_t n = g.num_vertices();

  obs::MetricsRegistry registry;
  const obs::CounterId trials_done = registry.counter("trials_done");
  const obs::HistogramId trial_rounds = registry.histogram("trial_rounds", 1.0);
  obs::RoundRecorder recorder(1);

  TelemetryBench result;
  result.trials = trials;
  const auto run_leg = [&](bool telemetry) {
    process->set_observer(telemetry ? &recorder : nullptr);
    Stopwatch watch;
    for (std::size_t i = 0; i < trials; ++i) {
      process->reset(Rng::for_trial(seed, i), static_cast<Vertex>(i % n));
      while (!process->done()) process->step();
      if (telemetry) {
        registry.add(trials_done);
        registry.observe(trial_rounds, static_cast<double>(process->round()));
      }
    }
    return watch.seconds();
  };

  // Warm-up both legs: first-touch shard allocation, recorder buffer
  // growth to the trial set's max round count (reps reuse the same trial
  // seeds, so capacity cannot grow again), process workspace.
  run_leg(false);
  run_leg(true);

  const auto telemetry_leg = [&] {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const double seconds = run_leg(true);
    result.steady_allocations +=
        g_allocations.load(std::memory_order_relaxed) - before;
    return seconds;
  };
  result.plain_seconds = -1;
  result.telemetry_seconds = -1;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Odd reps run the instrumented leg first, so neither leg always runs
    // on the state the other leaves behind.
    double plain = 0;
    double telemetry = 0;
    if (rep % 2 == 0) {
      plain = run_leg(false);
      telemetry = telemetry_leg();
    } else {
      telemetry = telemetry_leg();
      plain = run_leg(false);
    }
    if (result.plain_seconds < 0 || plain < result.plain_seconds) {
      result.plain_seconds = plain;
    }
    if (result.telemetry_seconds < 0 ||
        telemetry < result.telemetry_seconds) {
      result.telemetry_seconds = telemetry;
    }
  }
  process->set_observer(nullptr);
  return result;
}

// ---------------------------------------------------------------------------
// Batched-engine leg: the same workspace-reuse contract for the lockstep
// engine (sim/batched.hpp). Block 0 is warm-up (first-touch growth of the
// lane planes and scratch lists); every later run_block must perform ZERO
// allocations, mirroring the scalar reset+step gate above. Processes with
// no batched variant are skipped — the scalar rows already cover them.
// ---------------------------------------------------------------------------

struct BatchedRow {
  std::string name;
  std::size_t batch = 0;
  std::size_t blocks = 0;
  std::uint64_t warmup_allocations = 0;  ///< block 0: first-touch growth
  std::uint64_t steady_allocations = 0;  ///< blocks 1..B-1 combined
  std::uint64_t total_rounds = 0;
  double steady_seconds = 0;

  double rounds_per_sec() const {
    return steady_seconds > 0
               ? static_cast<double>(total_rounds) / steady_seconds
               : 0;
  }
};

bool bench_batched(const Graph& g, const std::string& name,
                   ProcessParams params, std::uint64_t seed,
                   std::size_t blocks, std::size_t batch, BatchedRow* out) {
  params.emplace_back("record_curve", "0");
  const auto process = make_process(g, name, params);
  const auto engine = make_batched_engine(*process, batch);
  if (engine == nullptr) return false;  // no batched variant for this process

  BatchedRow row;
  row.name = name;
  row.batch = batch;
  row.blocks = blocks;
  const std::size_t n = g.num_vertices();
  std::vector<Vertex> starts(batch);
  for (std::size_t l = 0; l < batch; ++l) {
    starts[l] = static_cast<Vertex>(l % n);
  }
  std::vector<SpreadResult> results(batch);
  Stopwatch watch;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (b == 1) watch.reset();
    engine->run_block(seed, b * batch, batch, starts, results.data());
    const std::uint64_t spent =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (b == 0) {
      row.warmup_allocations = spent;
    } else {
      row.steady_allocations += spent;
      for (std::size_t l = 0; l < batch; ++l) {
        row.total_rounds += results[l].rounds;
      }
    }
  }
  row.steady_seconds = blocks > 1 ? watch.seconds() : 0;
  *out = row;
  return true;
}

/// `faults`, when given, is attached before the warm-up trial (the one
/// allocation of the session workspace).
Leg bench_leg(const Graph& g, const std::string& name,
              const ProcessParams& params, std::uint64_t seed,
              std::size_t trials, bool stepped,
              const FaultModel* faults = nullptr) {
  const auto process = make_process(g, name, params);
  process->set_fault_model(faults);
  Leg leg;
  const std::size_t n = g.num_vertices();
  Stopwatch watch;
  for (std::size_t i = 0; i < trials; ++i) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (i == 1) watch.reset();
    const Rng rng = Rng::for_trial(seed, i);
    const auto start = static_cast<Vertex>(i % n);
    if (stepped) {
      // Drive the steppable interface directly (result() would copy the
      // curve; the campaign layer harvests scalars the same way).
      process->reset(rng, start);
      while (!process->done()) process->step();
    } else {
      (void)process->run(rng, start);  // no curve to copy: record_curve=0
    }
    if (i >= 1) leg.total_rounds += process->round();
    leg.completed += process->completed();
    const std::uint64_t spent =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (i == 0) {
      leg.warmup_allocations = spent;
    } else {
      leg.steady_allocations += spent;
    }
  }
  leg.steady_seconds = trials > 1 ? watch.seconds() : 0;
  return leg;
}

BenchRow bench_process(const Graph& g, const std::string& name,
                       const std::string& label, ProcessParams params,
                       std::uint64_t seed, std::size_t trials, bool with_run) {
  // Bulk Monte Carlo configuration, same as the campaign hot path.
  params.emplace_back("record_curve", "0");
  BenchRow row;
  row.name = label;
  row.trials = trials;
  row.stepped = bench_leg(g, name, params, seed, trials, /*stepped=*/true);
  // The faulty leg sets only drop, whose rounds cost O(1) in
  // FaultSession::begin_round. A churn or duty-cycle model sweeps all n
  // vertices every round, so trials stay capped at 1024 rounds: under such
  // a model a walker's O(n log n)-round cover would cost O(n^2 log n).
  ProcessParams faulty_params;
  for (const auto& param : params) {
    if (param.first != "max_rounds") faulty_params.push_back(param);
  }
  faulty_params.emplace_back("max_rounds", "1024");
  FaultOptions drop;
  drop.drop = 0.2;
  const FaultModel faults(g.num_vertices(), drop);
  row.faulty = bench_leg(g, name, faulty_params, seed, trials,
                         /*stepped=*/true, &faults);
  if (with_run) {
    row.run = bench_leg(g, name, params, seed, trials, /*stepped=*/false);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Scale scale = Scale::from_flags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260729));
  const std::string out_path = flags.get("out", "BENCH_process.json");
  const auto n = static_cast<std::size_t>(flags.get_int(
      "n", static_cast<std::int64_t>(
               scale.pick<std::size_t>(1u << 11, 1u << 13, 1u << 15))));
  const auto trials = static_cast<std::size_t>(flags.get_int(
      "trials", static_cast<std::int64_t>(scale.pick<std::size_t>(8, 12, 16))));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 32));
  const double overhead_limit =
      flags.get_double("telemetry-overhead-pct", 3.0) / 100.0;
  if (flags.help_requested()) {
    std::printf("usage: micro_process [flags]\n\nflags:\n");
    flags.print_help(std::cout);
    return 0;
  }
  flags.warn_unconsumed(std::cerr);

  Rng graph_rng(seed);
  const Graph g = gen::connected_random_regular(n, 8, graph_rng);
  std::printf("micro_process [scale=%s, graph=%s, n=%zu, trials=%zu]\n",
              scale.name().c_str(), g.name().c_str(), n, trials);
  std::printf("%-16s %7s %12s %12s %12s %14s %12s\n", "process", "trials",
              "step rnd/s", "faulty rnd/s", "run rnd/s", "steady allocs",
              "warm allocs");

  // Per-process parameter tweaks keep every row seconds-cheap: the walk's
  // step budget covers n log n cover times, SIS gets a finite round cap.
  // COBRA also runs at k = 1, the walk its run() loop is built for; only
  // COBRA rows time run(), as no other process has a run() loop of its own.
  std::vector<BenchRow> rows;
  bool all_zero = true;
  bool legs_agree = true;
  const auto add_row = [&](const std::string& name, const std::string& label,
                           const ProcessParams& params) {
    const bool with_run = name == "cobra";
    const BenchRow row =
        bench_process(g, name, label, params, seed, trials, with_run);
    const Leg none;
    const Leg& run = row.run ? *row.run : none;
    const double legs = row.run ? 3 : 2;
    const double per_trial =
        row.trials > 1
            ? static_cast<double>(row.stepped.steady_allocations +
                                  row.faulty.steady_allocations +
                                  run.steady_allocations) /
                  (legs * static_cast<double>(row.trials - 1))
            : 0;
    all_zero = all_zero && row.allocation_free();
    legs_agree = legs_agree && row.legs_agree();
    char run_rate[32] = "-";
    if (row.run) {
      std::snprintf(run_rate, sizeof run_rate, "%.0f", run.rounds_per_sec());
    }
    std::printf("%-16s %7zu %12.0f %12.0f %12s %11.1f/t %12llu%s%s\n",
                row.name.c_str(), row.trials, row.stepped.rounds_per_sec(),
                row.faulty.rounds_per_sec(), run_rate, per_trial,
                static_cast<unsigned long long>(
                    row.stepped.warmup_allocations +
                    row.faulty.warmup_allocations + run.warmup_allocations),
                row.allocation_free() ? "" : "  [ALLOCATES]",
                row.legs_agree() ? "" : "  [LEGS DIFFER]");
    rows.push_back(row);
  };
  for (const std::string& name : process_names()) {
    ProcessParams params;
    if (name == "sis") params.emplace_back("max_rounds", "4096");
    add_row(name, name, params);
    if (name == "cobra") add_row(name, "cobra k=1", {{"k", "1"}});
  }
  std::printf(all_zero
                  ? "steady state: zero per-trial allocations across the "
                    "registry\n"
                  : "steady state: some processes still allocate per trial\n");
  if (!legs_agree) {
    std::printf("run() and the stepped loop ran different rounds\n");
  }

  // Batched-engine gate: after the warm-up block, every run_block of the
  // lockstep engine must be allocation-free too (curve recording off, the
  // campaign hot path). Nonzero steady allocations fail the exit status.
  const std::size_t blocks = trials;  // same steady-state depth as above
  std::printf("%-16s %9s %12s %14s %12s\n", "batched[B]", "blocks",
              "rounds/sec", "steady allocs", "warm allocs");
  std::vector<BatchedRow> batched_rows;
  bool batched_zero = true;
  for (const std::string& name : process_names()) {
    ProcessParams params;
    if (name == "sis") params.emplace_back("max_rounds", "4096");
    BatchedRow row;
    if (!bench_batched(g, name, params, seed, blocks, batch, &row)) continue;
    const double per_block =
        row.blocks > 1 ? static_cast<double>(row.steady_allocations) /
                             static_cast<double>(row.blocks - 1)
                       : 0;
    batched_zero = batched_zero && row.steady_allocations == 0;
    std::printf("%-13s %2zu %9zu %12.0f %11.1f/b %12llu%s\n", row.name.c_str(),
                row.batch, row.blocks, row.rounds_per_sec(), per_block,
                static_cast<unsigned long long>(row.warmup_allocations),
                row.steady_allocations == 0 ? "" : "  [ALLOCATES]");
    batched_rows.push_back(row);
  }
  std::printf(batched_zero
                  ? "batched steady state: zero per-block allocations across "
                    "the supported set\n"
                  : "batched steady state: some engines still allocate per "
                    "block\n");

  // Telemetry-overhead gate: <= --telemetry-overhead-pct (default 3) and
  // zero steady-state allocations with the full per-trial instrumentation
  // attached, or the bench exits nonzero.
  // 100x the trials: a leg must run long enough (tens of ms) for the min
  // over reps to resolve a 3% difference on a shared host; code placement
  // alone moved 8 ms legs by more than 3%.
  const TelemetryBench telemetry =
      bench_telemetry(g, seed, trials * 100, /*reps=*/5);
  const bool telemetry_ok = telemetry.steady_allocations == 0 &&
                            telemetry.overhead() <= overhead_limit;
  std::printf(
      "telemetry leg (cobra, %zu trials, min of 5 reps): plain %.6fs, "
      "instrumented %.6fs, overhead %+.2f%%, steady allocs %llu%s\n",
      telemetry.trials, telemetry.plain_seconds, telemetry.telemetry_seconds,
      telemetry.overhead() * 100.0,
      static_cast<unsigned long long>(telemetry.steady_allocations),
      telemetry_ok ? "" : "  [FAIL]");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_process\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.name().c_str());
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"graph\": \"%s\",\n", g.name().c_str());
  std::fprintf(out, "  \"n\": %zu,\n  \"m\": %zu,\n", g.num_vertices(),
               g.num_edges());
  std::fprintf(out, "  \"zero_steady_state_allocations\": %s,\n",
               all_zero ? "true" : "false");
  std::fprintf(out, "  \"zero_steady_state_batched_allocations\": %s,\n",
               batched_zero ? "true" : "false");
  std::fprintf(out, "  \"run_matches_stepped\": %s,\n",
               legs_agree ? "true" : "false");
  std::fprintf(out, "  \"processes\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    // The top-level fields are the stepped leg; "run" is Process::run.
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"trials\": %zu, \"completed\": %zu, "
        "\"warmup_allocations\": %llu, \"steady_allocations\": %llu, "
        "\"total_rounds\": %llu, \"steady_seconds\": %.6f, "
        "\"rounds_per_sec\": %.1f",
        row.name.c_str(), row.trials, row.stepped.completed,
        static_cast<unsigned long long>(row.stepped.warmup_allocations),
        static_cast<unsigned long long>(row.stepped.steady_allocations),
        static_cast<unsigned long long>(row.stepped.total_rounds),
        row.stepped.steady_seconds, row.stepped.rounds_per_sec());
    // "faulty" is the stepped leg with a drop = 0.2 FaultModel attached.
    std::fprintf(out,
                 ", \"faulty\": {\"completed\": %zu, "
                 "\"warmup_allocations\": %llu, \"steady_allocations\": %llu, "
                 "\"total_rounds\": %llu, \"steady_seconds\": %.6f, "
                 "\"rounds_per_sec\": %.1f}",
                 row.faulty.completed,
                 static_cast<unsigned long long>(row.faulty.warmup_allocations),
                 static_cast<unsigned long long>(row.faulty.steady_allocations),
                 static_cast<unsigned long long>(row.faulty.total_rounds),
                 row.faulty.steady_seconds, row.faulty.rounds_per_sec());
    if (row.run) {
      std::fprintf(out,
                   ", \"run\": {\"warmup_allocations\": %llu, "
                   "\"steady_allocations\": %llu, \"steady_seconds\": %.6f, "
                   "\"rounds_per_sec\": %.1f}",
                   static_cast<unsigned long long>(row.run->warmup_allocations),
                   static_cast<unsigned long long>(row.run->steady_allocations),
                   row.run->steady_seconds, row.run->rounds_per_sec());
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"batched\": [\n");
  for (std::size_t i = 0; i < batched_rows.size(); ++i) {
    const BatchedRow& row = batched_rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"batch\": %zu, \"blocks\": %zu, "
        "\"warmup_allocations\": %llu, \"steady_allocations\": %llu, "
        "\"total_rounds\": %llu, \"steady_seconds\": %.6f, "
        "\"rounds_per_sec\": %.1f}%s\n",
        row.name.c_str(), row.batch, row.blocks,
        static_cast<unsigned long long>(row.warmup_allocations),
        static_cast<unsigned long long>(row.steady_allocations),
        static_cast<unsigned long long>(row.total_rounds), row.steady_seconds,
        row.rounds_per_sec(), i + 1 < batched_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"telemetry\": {\"trials\": %zu, \"plain_seconds\": %.6f, "
               "\"telemetry_seconds\": %.6f, \"overhead_pct\": %.2f, "
               "\"steady_allocations\": %llu, \"pass\": %s}\n",
               telemetry.trials, telemetry.plain_seconds,
               telemetry.telemetry_seconds, telemetry.overhead() * 100.0,
               static_cast<unsigned long long>(telemetry.steady_allocations),
               telemetry_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_zero && legs_agree && batched_zero && telemetry_ok ? 0 : 1;
}

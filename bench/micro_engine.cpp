// SPDX-License-Identifier: MIT
//
// M1e — engine throughput: rounds/sec and visits/sec for the COBRA/BIPS
// hot path on random-regular, grid, and irregular instances, serial and
// dispatched over the trial pool, plus the batched lockstep legs against
// the scalar runner. Emits machine-readable BENCH_engine.json, whose host
// block names the machine and build that produced the numbers.
//
//   ./micro_engine [--scale small|medium|large] [--trials N] [--seed S]
//                  [--threads T] [--out BENCH_engine.json]
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "protocols/push_pull.hpp"
#include "sim/batched.hpp"
#include "sim/trial_runner.hpp"
#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cobra;

constexpr std::size_t kMaxRounds = 1u << 20;

struct Throughput {
  double seconds = 0;
  std::uint64_t rounds = 0;
  std::uint64_t visits = 0;
  std::size_t trials = 0;
  std::size_t failed = 0;
  double rounds_per_sec() const {
    return seconds > 0 ? static_cast<double>(rounds) / seconds : 0;
  }
  double visits_per_sec() const {
    return seconds > 0 ? static_cast<double>(visits) / seconds : 0;
  }
};

Throughput time_engine_cobra(const Graph& g, std::uint64_t seed,
                             std::size_t trials, std::size_t threads) {
  TrialOptions options;
  options.trials = trials;
  options.base_seed = seed;
  options.threads = threads;
  CobraOptions cobra_options;
  cobra_options.record_curves = false;
  const std::size_t n = g.num_vertices();
  Throughput t;
  t.trials = trials;
  Stopwatch watch;
  const auto results = run_trials_collect<SpreadResult, CobraProcess>(
      options, [&] { return CobraProcess(g, 0, cobra_options); },
      [&](std::size_t i, Rng& rng, CobraProcess& process) {
        return run_cobra_cover(process, static_cast<Vertex>(i % n), rng);
      });
  t.seconds = watch.seconds();
  for (const auto& r : results) {
    t.rounds += r.rounds;
    t.visits += r.final_count;
    t.failed += !r.completed;
  }
  return t;
}

Throughput time_engine_bips(const Graph& g, std::uint64_t seed,
                            std::size_t trials, std::size_t threads) {
  TrialOptions options;
  options.trials = trials;
  options.base_seed = seed;
  options.threads = threads;
  BipsOptions bips_options;
  bips_options.record_curve = false;
  const std::size_t n = g.num_vertices();
  Throughput t;
  t.trials = trials;
  Stopwatch watch;
  const auto results = run_trials_collect<SpreadResult, BipsProcess>(
      options, [&] { return BipsProcess(g, 0, bips_options); },
      [&](std::size_t i, Rng& rng, BipsProcess& process) {
        return run_bips_infection(process, static_cast<Vertex>(i % n), rng);
      });
  t.seconds = watch.seconds();
  for (const auto& r : results) {
    t.rounds += r.rounds;
    t.visits += r.final_count;
    t.failed += !r.completed;
  }
  return t;
}

/// Batched lockstep leg: the same trials through run_process_trials_batched
/// (B = 1 exercises the scalar fallback, so its throughput doubles as an
/// overhead check). Serial — the point is lanes per pass, not threads.
Throughput time_runner(std::uint64_t seed, std::size_t trials,
                       const std::function<std::unique_ptr<Process>()>& make,
                       std::span<const Vertex> starts, std::size_t batch) {
  TrialOptions options;
  options.trials = trials;
  options.base_seed = seed;
  options.threads = 0;
  Throughput t;
  t.trials = trials;
  Stopwatch watch;
  const auto results =
      batch == 0 ? run_process_trials(options, make, starts)
                 : run_process_trials_batched(options, make, starts, batch);
  t.seconds = watch.seconds();
  for (const auto& r : results) {
    t.rounds += r.rounds;
    t.visits += r.final_count;
    t.failed += !r.completed;
  }
  return t;
}

double visits_speedup(const Throughput& batched, const Throughput& scalar) {
  return scalar.visits_per_sec() > 0
             ? batched.visits_per_sec() / scalar.visits_per_sec()
             : 0;
}

void print_row(const char* label, const Throughput& t) {
  std::printf("  %-10s %8.3fs  %12.0f rounds/s  %14.0f visits/s%s\n", label,
              t.seconds, t.rounds_per_sec(), t.visits_per_sec(),
              t.failed ? "  [FAILED TRIALS]" : "");
}

void emit_throughput(FILE* out, const char* name, const Throughput& t,
                     std::size_t threads, bool last = false) {
  std::fprintf(out,
               "      \"%s\": {\"threads\": %zu, \"trials\": %zu, "
               "\"failed\": %zu, \"seconds\": %.6f, \"total_rounds\": %llu, "
               "\"rounds_per_sec\": %.1f, \"visits_per_sec\": %.1f}%s\n",
               name, threads, t.trials, t.failed, t.seconds,
               static_cast<unsigned long long>(t.rounds), t.rounds_per_sec(),
               t.visits_per_sec(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Scale scale = Scale::from_flags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260729));
  const auto threads = static_cast<std::size_t>(flags.get_int(
      "threads",
      static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  const std::string out_path = flags.get("out", "BENCH_engine.json");
  const auto trials_flag = flags.get_int("trials", 0);
  if (flags.help_requested()) {
    std::printf("usage: micro_engine [flags]\n\nflags:\n");
    flags.print_help(std::cout);
    return 0;
  }
  flags.warn_unconsumed(std::cerr);

  const std::size_t n = scale.pick<std::size_t>(1u << 14, 1u << 16, 1u << 18);
  const std::size_t side = scale.pick<std::size_t>(128, 256, 512);
  const std::size_t cobra_trials =
      trials_flag > 0 ? static_cast<std::size_t>(trials_flag)
                      : scale.pick<std::size_t>(8, 12, 16);
  const std::size_t bips_trials =
      trials_flag > 0 ? static_cast<std::size_t>(trials_flag)
                      : std::max<std::size_t>(2, cobra_trials / 2);
  // The batched legs need enough trials to fill 32 lanes twice over;
  // their scalar reference is re-timed at the same count.
  const std::size_t batched_trials =
      trials_flag > 0 ? std::max<std::size_t>(trials_flag, 64) : 64;
  const std::size_t batches[] = {1, 8, 32};

  Rng graph_rng(seed);
  struct Instance {
    std::string family;
    Graph graph;
  };
  std::vector<Instance> instances;
  instances.push_back(
      {"random_regular", gen::connected_random_regular(n, 8, graph_rng)});
  instances.push_back({"grid", gen::torus({side, side})});
  instances.push_back({"irregular", gen::barabasi_albert(n, 4, graph_rng)});

  std::printf("micro_engine [scale=%s, n=%zu, threads=%zu]\n",
              scale.name().c_str(), n, threads);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_engine\",\n");
  std::fprintf(out, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.name().c_str());
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"threads\": %zu,\n", threads);
  std::fprintf(out, "  \"instances\": [\n");

  for (std::size_t idx = 0; idx < instances.size(); ++idx) {
    const auto& instance = instances[idx];
    const Graph& g = instance.graph;
    std::printf("\n%s  (n=%zu, m=%zu)\n", g.name().c_str(), g.num_vertices(),
                g.num_edges());

    std::printf(" COBRA cover (k=2, %zu trials):\n", cobra_trials);
    const auto cobra_engine = time_engine_cobra(g, seed, cobra_trials, 0);
    const auto cobra_mt = time_engine_cobra(g, seed, cobra_trials, threads);
    print_row("engine", cobra_engine);
    print_row("engine_mt", cobra_mt);

    std::printf(" BIPS infection (k=2, %zu trials):\n", bips_trials);
    const auto bips_engine = time_engine_bips(g, seed, bips_trials, 0);
    const auto bips_mt = time_engine_bips(g, seed, bips_trials, threads);
    print_row("engine", bips_engine);
    print_row("engine_mt", bips_mt);

    // Batched lockstep legs: same trials, serial, lanes doing the work.
    std::vector<Vertex> starts(g.num_vertices());
    std::iota(starts.begin(), starts.end(), Vertex{0});
    CobraOptions batched_cobra_options;
    batched_cobra_options.branching.k = 2;
    batched_cobra_options.record_curves = false;
    batched_cobra_options.max_rounds = kMaxRounds;
    const auto make_cobra = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<CobraProcess>(g, 0, batched_cobra_options);
    };
    BipsOptions batched_bips_options;
    batched_bips_options.branching.k = 2;
    batched_bips_options.record_curve = false;
    batched_bips_options.max_rounds = kMaxRounds;
    const auto make_bips = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<BipsProcess>(g, 0, batched_bips_options);
    };
    PushPullOptions batched_pp_options;
    batched_pp_options.record_curve = false;
    batched_pp_options.max_rounds = kMaxRounds;
    const auto make_pp = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<PushPullProcess>(g, batched_pp_options);
    };
    struct BatchedLeg {
      Throughput scalar;
      std::vector<Throughput> legs;
    };
    const auto run_batched =
        [&](const char* title,
            const std::function<std::unique_ptr<Process>()>& make) {
          std::printf(" %s batched (%zu trials, serial):\n", title,
                      batched_trials);
          BatchedLeg leg;
          leg.scalar = time_runner(seed, batched_trials, make, starts, 0);
          print_row("scalar", leg.scalar);
          for (const std::size_t b : batches) {
            leg.legs.push_back(
                time_runner(seed, batched_trials, make, starts, b));
            char label[16];
            std::snprintf(label, sizeof label, "b%zu", b);
            print_row(label, leg.legs.back());
          }
          std::printf("  batched speedup (visits/s vs scalar): %.2fx @1, "
                      "%.2fx @8, %.2fx @32\n",
                      visits_speedup(leg.legs[0], leg.scalar),
                      visits_speedup(leg.legs[1], leg.scalar),
                      visits_speedup(leg.legs[2], leg.scalar));
          return leg;
        };
    const BatchedLeg cobra_batched = run_batched("COBRA (k=2)", make_cobra);
    const BatchedLeg bips_batched = run_batched("BIPS (k=2)", make_bips);
    const BatchedLeg pp_batched = run_batched("push-pull", make_pp);

    std::fprintf(out, "    {\"family\": \"%s\", \"graph\": \"%s\", ",
                 instance.family.c_str(), g.name().c_str());
    std::fprintf(out, "\"n\": %zu, \"m\": %zu,\n", g.num_vertices(),
                 g.num_edges());
    std::fprintf(out, "     \"cobra\": {\n");
    emit_throughput(out, "engine", cobra_engine, 1);
    emit_throughput(out, "engine_mt", cobra_mt, threads, /*last=*/true);
    std::fprintf(out, "     },\n     \"bips\": {\n");
    emit_throughput(out, "engine", bips_engine, 1);
    emit_throughput(out, "engine_mt", bips_mt, threads, /*last=*/true);
    std::fprintf(out, "     },\n");
    const auto emit_batched = [&](const char* key,
                                  const Throughput& scalar_ref,
                                  const std::vector<Throughput>& legs) {
      std::fprintf(out, "     \"%s\": {\n", key);
      emit_throughput(out, "scalar", scalar_ref, 1);
      for (std::size_t i = 0; i < legs.size(); ++i) {
        char name[16];
        std::snprintf(name, sizeof name, "b%zu", batches[i]);
        emit_throughput(out, name, legs[i], 1);
      }
      std::fprintf(out,
                   "      \"speedup_b1\": %.3f, \"speedup_b8\": %.3f, "
                   "\"speedup_b32\": %.3f\n     }",
                   visits_speedup(legs[0], scalar_ref),
                   visits_speedup(legs[1], scalar_ref),
                   visits_speedup(legs[2], scalar_ref));
    };
    emit_batched("cobra_batched", cobra_batched.scalar, cobra_batched.legs);
    std::fprintf(out, ",\n");
    emit_batched("bips_batched", bips_batched.scalar, bips_batched.legs);
    std::fprintf(out, ",\n");
    emit_batched("push_pull_batched", pp_batched.scalar, pp_batched.legs);
    std::fprintf(out, "}%s\n", idx + 1 < instances.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

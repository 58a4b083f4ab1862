// SPDX-License-Identifier: MIT
//
// Scenario subsystem tests: spec parsing fails loudly with line numbers,
// sweep expansion, registry coverage (every graph family and process),
// grid expansion counts and ordering, determinism across thread counts,
// and — the checkpoint/resume contract — a killed-and-resumed campaign
// producing byte-identical final output to an uninterrupted run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "protocols/push.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/job_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "sim/sweep.hpp"
#include "test_support.hpp"

namespace cobra::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out << content;
}

/// Expects `fn` to throw SpecError whose message contains `needle`.
template <typename Fn>
void expect_spec_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected SpecError containing '" << needle << "'";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

constexpr const char* kTinySpec = R"(
[campaign]
name = tiny
trials = 4
base_seed = 99
seeds = 0..1

[graph]
family = cycle
n = 32,64

[process]
name = cobra
k = 2
)";

// ---- spec parsing ----

TEST(SpecParse, SectionsKeysAndComments) {
  const auto spec = ScenarioSpec::parse_string(
      "# header comment\n[campaign]\nname = demo  # inline\n\n[graph]\n"
      "family=cycle\nn = 64\n");
  EXPECT_EQ(spec.get("campaign", "name", ""), "demo");
  EXPECT_EQ(spec.get("graph", "family", ""), "cycle");
  EXPECT_EQ(spec.get_int("graph", "n", 0), 64);
  EXPECT_EQ(spec.get("graph", "missing", "fallback"), "fallback");
}

TEST(SpecParse, ErrorsCarryLineNumbers) {
  expect_spec_error(
      [] { ScenarioSpec::parse_string("key = 1\n", "bad.scenario"); },
      "bad.scenario:1:");
  expect_spec_error(
      [] {
        ScenarioSpec::parse_string("[campaign]\nnonsense line\n",
                                   "bad.scenario");
      },
      "bad.scenario:2:");
  expect_spec_error(
      [] {
        ScenarioSpec::parse_string("[campaign]\nx = 1\nx = 2\n",
                                   "bad.scenario");
      },
      "bad.scenario:3: duplicate key 'x'");
  expect_spec_error(
      [] {
        ScenarioSpec::parse_string("[campaign\nx = 1\n", "bad.scenario");
      },
      "bad.scenario:1:");
  expect_spec_error(
      [] {
        const auto spec = ScenarioSpec::parse_string(
            "[campaign]\ntrials = lots\n", "bad.scenario");
        spec.get_int("campaign", "trials", 1);
      },
      "bad.scenario:2:");
}

TEST(SpecExpand, ScalarListAndRanges) {
  EXPECT_EQ(expand_values("8"), (std::vector<std::string>{"8"}));
  EXPECT_EQ(expand_values("0.05, 0.1,0.2"),
            (std::vector<std::string>{"0.05", "0.1", "0.2"}));
  EXPECT_EQ(expand_values("256..2048 *2"),
            (std::vector<std::string>{"256", "512", "1024", "2048"}));
  EXPECT_EQ(expand_values("1..7 +3"),
            (std::vector<std::string>{"1", "4", "7"}));
  EXPECT_EQ(expand_values("3..5"), (std::vector<std::string>{"3", "4", "5"}));
  expect_spec_error([] { expand_values("5..1"); }, "start exceeds end");
  expect_spec_error([] { expand_values("1..8 *1"); }, "factor >= 2");
  expect_spec_error([] { expand_values("a..b"); }, "integer");
  // Hostile-but-parseable endpoints must fail loudly, not overflow.
  expect_spec_error([] { expand_values("1..9223372036854775807 *2"); },
                    "1e15");
  expect_spec_error([] { expand_values("1..4611686018427387904 +1"); },
                    "1e15");
}

// ---- registries ----

TEST(Registry, EveryGraphFamilyBuilds) {
  const std::vector<std::pair<std::string, ParamMap>> cases = {
      {"barabasi_albert", {{"n", "64"}, {"attach", "3"}}},
      {"barbell", {{"clique", "8"}, {"bridge", "2"}}},
      {"binary_tree", {{"levels", "4"}}},
      {"circulant", {{"n", "32"}, {"offsets", "1x3x5"}}},
      {"complete", {{"n", "16"}}},
      {"complete_bipartite", {{"a", "4"}, {"b", "6"}}},
      {"connected_random_regular", {{"n", "32"}, {"r", "4"}}},
      {"cycle", {{"n", "24"}}},
      {"erdos_renyi", {{"n", "64"}, {"p", "0.2"}}},
      {"generalized_petersen", {{"n", "8"}, {"k", "3"}}},
      {"grid", {{"dims", "4x5"}, {"periodic", "0"}}},
      {"hypercube", {{"d", "5"}}},
      {"kneser", {{"n_set", "5"}, {"k_subset", "2"}}},
      {"lollipop", {{"clique", "6"}, {"path", "4"}}},
      {"margulis", {{"m", "5"}}},
      {"paley", {{"q", "13"}}},
      {"path", {{"n", "12"}}},
      {"petersen", {}},
      {"random_geometric", {{"n", "64"}, {"radius", "0.35"}}},
      {"random_regular", {{"n", "32"}, {"r", "4"}}},
      {"star", {{"n", "9"}}},
      {"torus", {{"dims", "4x4"}}},
      {"watts_strogatz", {{"n", "32"}, {"k", "4"}, {"beta", "0.1"}}},
  };
  // The registry covers exactly the tested families plus "file"
  // (exercised separately with a real file below).
  EXPECT_EQ(graph_families().size(), cases.size() + 1);
  for (const auto& [family, params] : cases) {
    ASSERT_TRUE(is_graph_family(family)) << family;
    ParamMap full = params;
    full.insert(full.begin(), {"family", family});
    Rng rng(42);
    const Graph g = build_graph(full, rng);
    EXPECT_GT(g.num_vertices(), 0u) << family;
    // The plan-time key table must agree with what the factory consumes.
    for (const auto& [key, value] : params) {
      EXPECT_TRUE(graph_family_has_param(family, key)) << family << "." << key;
    }
    EXPECT_FALSE(graph_family_has_param(family, "no_such_key")) << family;
  }
}

TEST(Registry, EveryProcessRunsOnAnExpander) {
  Rng graph_rng(7);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  for (const std::string& name : process_names()) {
    ParamMap params{{"name", name}};
    const auto process = scenario::make_process(g, params);
    const SpreadResult result = process->run(Rng(11), 0);
    EXPECT_GT(result.rounds, 0u) << name;
    if (name != "sis") {
      // Every protocol except the source-free epidemic must cover/inform
      // a 64-vertex expander comfortably within its default budget.
      EXPECT_TRUE(result.completed) << name;
    }
  }
}

TEST(Registry, UnknownKeysAndNamesFailLoudly) {
  Rng rng(1);
  expect_spec_error(
      [&] {
        build_graph({{"family", "cycle"}, {"n", "8"}, {"typo", "1"}}, rng);
      },
      "unknown parameter 'typo'");
  expect_spec_error([&] { build_graph({{"family", "nope"}}, rng); },
                    "unknown family 'nope'");
  const Graph g = gen::cycle(8);
  expect_spec_error(
      [&] { scenario::make_process(g, {{"name", "cobra"}, {"k", "2"}, {"rho", "0.5"}}); },
      "not both");
  expect_spec_error([&] { scenario::make_process(g, {{"name", "gossip9000"}}); },
                    "unknown name");
}

// ---- planning ----

TEST(Plan, GridExpansionCountsAndOrder) {
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  // seeds(2) x n(2) x k(1) = 4 jobs; seeds slowest, process keys fastest.
  ASSERT_EQ(plan.jobs.size(), 4u);
  EXPECT_EQ(plan.trials, 4u);
  EXPECT_EQ(plan.base_seed, 99u);
  EXPECT_EQ(plan.jobs[0].seed_index, 0u);
  EXPECT_EQ(*find_param(plan.jobs[0].graph, "n"), "32");
  EXPECT_EQ(*find_param(plan.jobs[1].graph, "n"), "64");
  EXPECT_EQ(plan.jobs[2].seed_index, 1u);
  EXPECT_EQ(*find_param(plan.jobs[3].graph, "n"), "64");
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_EQ(plan.jobs[i].index, i);
  }
}

TEST(Plan, RejectsUnknownSectionsKeysAndNames) {
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[graphs]\nfamily = cycle\n", "s.scenario"));
      },
      "s.scenario:1: unknown section");
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[campaign]\ntirals = 3\n[graph]\nfamily = cycle\nn = 8\n"
            "[process]\nname = cobra\n",
            "s.scenario"));
      },
      "s.scenario:2: unknown [campaign] key 'tirals'");
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[graph]\nfamily = dodecahedron\nn = 8\n[process]\nname = cobra\n",
            "s.scenario"));
      },
      "s.scenario:2: unknown graph family");
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 8\n[process]\nname = telepathy\n",
            "s.scenario"));
      },
      "s.scenario:5: unknown process");
  expect_spec_error(
      [] {
        plan_campaign(
            ScenarioSpec::parse_string("[process]\nname = cobra\n"));
      },
      "missing required section [graph]");
  // Typo'd parameter keys are rejected at plan time (so --dry-run vets
  // them) instead of becoming bogus sweep axes.
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[graph]\nfamily = random_regular\nn = 32\nrr = 4..64 *2\n"
            "[process]\nname = cobra\n",
            "s.scenario"));
      },
      "s.scenario:4: graph family 'random_regular' has no parameter 'rr'");
  expect_spec_error(
      [] {
        plan_campaign(ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n"
            "[process]\nname = cobra\nmax_round = 64\n",
            "s.scenario"));
      },
      "s.scenario:6: process 'cobra' has no parameter 'max_round'");
}

// ---- execution ----

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  CampaignOptions serial;
  serial.threads = 0;
  CampaignOptions pooled;
  pooled.threads = 3;
  const auto a = run_campaign(plan, serial);
  const auto b = run_campaign(plan, pooled);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  for (const auto& job : plan.jobs) {
    EXPECT_EQ(jsonl_record(plan, job, *a.jobs[job.index]),
              jsonl_record(plan, job, *b.jobs[job.index]));
  }
}

TEST(Campaign, KilledAndResumedOutputIsByteIdentical) {
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  const std::string dir = test_temp_dir();
  const std::string uninterrupted = dir + "scenario_uninterrupted";
  const std::string interrupted = dir + "scenario_interrupted";
  for (const auto& stem : {uninterrupted, interrupted}) {
    for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
      std::remove((stem + ext).c_str());
    }
  }

  CampaignOptions full;
  full.output = uninterrupted;
  const auto reference = run_campaign(plan, full);
  ASSERT_TRUE(reference.complete);

  // "Kill" the campaign twice mid-flight, then let it finish.
  CampaignOptions stop_early;
  stop_early.output = interrupted;
  stop_early.max_jobs = 1;
  const auto first = run_campaign(plan, stop_early);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.executed, 1u);
  const auto second = run_campaign(plan, stop_early);
  EXPECT_FALSE(second.complete);
  EXPECT_EQ(second.resumed, 1u);
  EXPECT_EQ(second.executed, 1u);
  CampaignOptions finish;
  finish.output = interrupted;
  const auto final_run = run_campaign(plan, finish);
  ASSERT_TRUE(final_run.complete);
  EXPECT_EQ(final_run.resumed, 2u);
  EXPECT_EQ(final_run.executed, 2u);

  EXPECT_EQ(read_file(uninterrupted + ".jsonl"),
            read_file(interrupted + ".jsonl"));
  EXPECT_EQ(read_file(uninterrupted + ".csv"),
            read_file(interrupted + ".csv"));
  // The campaign-wide streaming aggregate also survives the resume.
  EXPECT_EQ(final_run.all_rounds.count(), reference.all_rounds.count());
  EXPECT_DOUBLE_EQ(final_run.all_rounds.mean(), reference.all_rounds.mean());
}

// ---- batched engine ([engine] batch) ----

TEST(Campaign, BatchedEngineIsFingerprintNeutralAndByteIdentical) {
  const auto scalar_spec = ScenarioSpec::parse_string(kTinySpec);
  auto batched_spec = ScenarioSpec::parse_string(kTinySpec);
  batched_spec.set("engine", "batch", "8");
  const auto scalar_plan = plan_campaign(scalar_spec);
  const auto batched_plan = plan_campaign(batched_spec);
  EXPECT_EQ(scalar_plan.batch, 1u);
  EXPECT_EQ(batched_plan.batch, 8u);
  // The [engine] section must not perturb the fingerprint: journals
  // written at any batch resume under any other.
  EXPECT_EQ(scalar_plan.fingerprint, batched_plan.fingerprint);

  const std::string dir = test_temp_dir();
  const std::string scalar_stem = dir + "scenario_engine_scalar";
  const std::string batched_stem = dir + "scenario_engine_batched";
  for (const auto& stem : {scalar_stem, batched_stem}) {
    for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
      std::remove((stem + ext).c_str());
    }
  }
  CampaignOptions scalar_options;
  scalar_options.output = scalar_stem;
  const auto scalar_result = run_campaign(scalar_plan, scalar_options);
  ASSERT_TRUE(scalar_result.complete);

  // Kill the batched campaign mid-flight and finish the rest under the
  // scalar engine — the journal carries over and the final sinks must be
  // byte-for-byte what the uninterrupted scalar campaign wrote.
  CampaignOptions stop_early;
  stop_early.output = batched_stem;
  stop_early.max_jobs = 1;
  const auto first = run_campaign(batched_plan, stop_early);
  EXPECT_FALSE(first.complete);
  CampaignOptions finish;
  finish.output = batched_stem;
  const auto final_run = run_campaign(scalar_plan, finish);
  ASSERT_TRUE(final_run.complete);
  EXPECT_EQ(final_run.resumed, 1u);

  EXPECT_EQ(read_file(scalar_stem + ".jsonl"),
            read_file(batched_stem + ".jsonl"));
  EXPECT_EQ(read_file(scalar_stem + ".csv"),
            read_file(batched_stem + ".csv"));
}

TEST(Campaign, BatchedEngineFallsBackPerJob) {
  // flood has no batched engine and the faulted axis forces the scalar
  // path for every process — both must degrade silently and identically.
  constexpr const char* kSweep = R"(
[campaign]
name = engines
trials = 5
base_seed = 41

[graph]
family = cycle
n = 48

[process]
name = push, flood

[faults]
drop = 0, 0.2
)";
  const auto spec = ScenarioSpec::parse_string(kSweep);
  auto scalar_plan = plan_campaign(spec);
  auto batched_plan = scalar_plan;
  batched_plan.batch = 4;
  const auto a = run_campaign(scalar_plan, {});
  const auto b = run_campaign(batched_plan, {});
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  for (const auto& job : scalar_plan.jobs) {
    EXPECT_EQ(jsonl_record(scalar_plan, job, *a.jobs[job.index]),
              jsonl_record(batched_plan, job, *b.jobs[job.index]));
  }
}

TEST(Plan, EngineSectionValidatesBatch) {
  for (const char* bad : {"0", "65", "-3", "x"}) {
    auto spec = ScenarioSpec::parse_string(kTinySpec);
    spec.set("engine", "batch", bad);
    expect_spec_error([&] { plan_campaign(spec); }, "[engine] batch");
  }
  auto spec = ScenarioSpec::parse_string(kTinySpec);
  spec.set("engine", "lanes", "8");
  expect_spec_error([&] { plan_campaign(spec); }, "no key 'lanes'");
}

// ---- trial-granular job runner (scenario/job_runner.hpp) ----

// Six tiny jobs, then two 64-trial jobs on the one large graph, last in
// index order: once every job has started, the idle participants must help
// those two, and their trials then run on several threads at once.
constexpr const char* kHelpSpec = R"(
[campaign]
name = helping
trials = 64
base_seed = 7

[graph]
family = random_regular
n = 16, 24, 32, 1024
r = 4

[process]
name = cobra, bips
k = 2
)";

/// Runs `spec_text` at `threads` into a fresh stem; returns JSONL + CSV.
std::string run_sinks(const std::string& spec_text, std::size_t threads,
                      const std::string& tag) {
  const std::string stem = test_temp_dir() + "scenario_runner_" + tag;
  for (const char* ext : {".journal", ".jsonl", ".csv", ".rounds.jsonl"}) {
    std::remove((stem + ext).c_str());
  }
  CampaignOptions options;
  options.threads = threads;
  options.output = stem;
  const auto result =
      run_campaign(plan_campaign(ScenarioSpec::parse_string(spec_text)),
                   options);
  EXPECT_TRUE(result.complete) << tag;
  EXPECT_EQ(result.executed, 8u) << tag;
  return read_file(stem + ".jsonl") + read_file(stem + ".csv");
}

TEST(JobRunner, SinksIdenticalAtEveryThreadCountBatchAndTelemetry) {
  const std::string plain(kHelpSpec);
  const std::string reference = run_sinks(plain, 0, "plain_t0");
  ASSERT_FALSE(reference.empty());
  const std::string faulty = plain + "\n[faults]\ndrop = 0.2\n";
  const std::string faulty_reference = run_sinks(faulty, 0, "faults_t0");
  EXPECT_NE(faulty_reference, reference);
  struct Variant {
    const char* tag;
    std::string spec;
    const std::string* expected;
  };
  const Variant variants[] = {
      {"plain", plain, &reference},
      {"batch", plain + "\n[engine]\nbatch = 8\n", &reference},
      {"faults", faulty, &faulty_reference},
      // Recorded trials stay on their job's opener; the rest are shared.
      {"rounds", plain + "\n[telemetry]\nrounds = 1\nrounds_trials = 3\n",
       &reference},
  };
  for (const Variant& variant : variants) {
    for (const std::size_t threads : {0, 1, 3, 7}) {
      const std::string tag =
          std::string(variant.tag) + "_t" + std::to_string(threads);
      EXPECT_EQ(run_sinks(variant.spec, threads, tag), *variant.expected)
          << tag;
    }
  }
}

TEST(JobRunner, FailingHelpedTrialFailsTheRunWithoutLeaks) {
  const CampaignPlan plan =
      plan_campaign(ScenarioSpec::parse_string(kHelpSpec));
  const std::size_t big = plan.jobs.size() - 1;
  std::vector<std::size_t> jobs(plan.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = i;
  GraphCache cache([&plan](const JobSpec& job) {
    return build_campaign_graph(plan, job);
  });
  JobRunner runner(3);

  // The first thread to run a trial of the last job waits until another
  // participant joins it there; that helper's trial throws.
  std::mutex mutex;
  std::condition_variable joined;
  std::thread::id first;
  bool helped = false;
  std::size_t done = 0;
  JobRunner::Hooks hooks;
  hooks.done = [&done](const JobSpec&, JobResult&&) { ++done; };
  hooks.before_trial = [&](const JobSpec& job, std::size_t) {
    if (job.index != big) return;
    std::unique_lock lock(mutex);
    const std::thread::id self = std::this_thread::get_id();
    if (first == std::thread::id()) {
      first = self;
      joined.wait_for(lock, std::chrono::seconds(20), [&] { return helped; });
      return;
    }
    if (self == first) return;
    helped = true;
    joined.notify_all();
    throw std::runtime_error("injected trial failure");
  };
  expect_spec_error([&] { runner.run(plan, jobs, cache, nullptr, hooks); },
                    "job " + std::to_string(big) +
                        ": injected trial failure");
  EXPECT_TRUE(helped);
  EXPECT_LT(done, plan.jobs.size());
  // Every graph use was released, the failed job's included.
  EXPECT_EQ(cache.usage().graphs, 0u);

  // The runner and the cache stay usable: a clean rerun finishes every job
  // and matches the serial campaign.
  std::vector<std::optional<JobResult>> results(plan.jobs.size());
  hooks.before_trial = nullptr;
  hooks.done = [&results](const JobSpec& job, JobResult&& result) {
    results[job.index] = std::move(result);
  };
  runner.run(plan, jobs, cache, nullptr, hooks);
  EXPECT_EQ(cache.usage().graphs, 0u);
  const auto serial = run_campaign(plan, {});
  for (const JobSpec& job : plan.jobs) {
    ASSERT_TRUE(results[job.index].has_value());
    EXPECT_EQ(jsonl_record(plan, job, *results[job.index]),
              jsonl_record(plan, job, *serial.jobs[job.index]));
  }
}

TEST(JobRunner, FailingTrialFailsTheRunSeriallyAndPooled) {
  // A throwing trial fails the run with the job's index whether one or
  // three participants run it, and releases every graph use.
  const CampaignPlan plan =
      plan_campaign(ScenarioSpec::parse_string(kHelpSpec));
  std::vector<std::size_t> jobs = {0, 1, 2};
  for (const std::size_t threads : {0, 2}) {
    GraphCache cache([&plan](const JobSpec& job) {
      return build_campaign_graph(plan, job);
    });
    JobRunner runner(threads);
    JobRunner::Hooks hooks;
    hooks.before_trial = [](const JobSpec& job, std::size_t trial) {
      if (job.index == 1 && trial == 5) throw std::runtime_error("boom");
    };
    expect_spec_error(
        [&] { runner.run(plan, jobs, cache, nullptr, hooks); }, "job 1: boom");
    EXPECT_EQ(cache.usage().graphs, 0u);
  }
}

TEST(JobRunner, MaxJobsCountsStayExactWhenHelping) {
  const CampaignPlan plan =
      plan_campaign(ScenarioSpec::parse_string(kHelpSpec));
  const std::string dir = test_temp_dir();
  const std::string stem = dir + "scenario_runner_max_jobs";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  CampaignOptions options;
  options.threads = 3;
  options.output = stem;
  options.max_jobs = 3;
  const auto first = run_campaign(plan, options);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.resumed, 0u);
  EXPECT_EQ(first.executed, 3u);
  const auto second = run_campaign(plan, options);
  EXPECT_FALSE(second.complete);
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.executed, 3u);
  options.max_jobs = 0;
  const auto last = run_campaign(plan, options);
  ASSERT_TRUE(last.complete);
  EXPECT_EQ(last.resumed, 6u);
  EXPECT_EQ(last.executed, 2u);
  EXPECT_EQ(read_file(stem + ".jsonl") + read_file(stem + ".csv"),
            run_sinks(kHelpSpec, 0, "max_jobs_reference"));
}

TEST(Campaign, ResumeRejectsMismatchedSpec) {
  const std::string stem = test_temp_dir() + "scenario_mismatch";
  for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  CampaignOptions options;
  options.output = stem;
  options.max_jobs = 1;
  run_campaign(plan, options);

  auto changed_spec = ScenarioSpec::parse_string(kTinySpec);
  changed_spec.set("campaign", "base_seed", "123456");
  const auto changed_plan = plan_campaign(changed_spec);
  expect_spec_error([&] { run_campaign(changed_plan, options); },
                    "different campaign");
  // --fresh (resume = false) starts over instead.
  options.resume = false;
  options.max_jobs = 0;
  const auto result = run_campaign(changed_plan, options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.resumed, 0u);
}

TEST(Campaign, FileGraphHookRunsOnExternalEdgeList) {
  const std::string path = test_temp_dir() + "scenario_graph.el";
  // Headerless, comment-laden, weighted, both-direction edge list — the
  // tolerant parse the `graph.file` hook enables (n inferred as 4).
  write_file(path,
             "% exported by some tool\n"
             "0 1 0.25\n"
             "1 0 0.25   # reverse duplicate\n"
             "1 2 1.5\n"
             "2 3 0.75\n"
             "3 0 2.0\n");
  const std::string spec_text =
      "[campaign]\ntrials = 3\n[graph]\nfamily = file\nfile = " + path +
      "\n[process]\nname = push\n";
  const auto plan = plan_campaign(ScenarioSpec::parse_string(spec_text));
  const auto result = run_campaign(plan);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.jobs[0]->failed, 0u);
  EXPECT_EQ(result.jobs[0]->rounds.count, 3u);
}

TEST(Campaign, CobraToleratesIsolatedVerticesButBipsRefuses) {
  // External edge list whose header declares an extra, isolated vertex.
  const std::string path = test_temp_dir() + "scenario_isolated.el";
  write_file(path, "n 5\n0 1\n1 2\n2 3\n3 0\n");
  const std::string base =
      "[campaign]\ntrials = 2\n[graph]\nfamily = file\nfile = " + path +
      "\n[process]\n";
  // COBRA runs (cover is impossible, so every trial fails at max_rounds).
  const auto cobra_plan = plan_campaign(ScenarioSpec::parse_string(
      base + "name = cobra\nmax_rounds = 64\n"));
  const auto cobra_result = run_campaign(cobra_plan);
  ASSERT_TRUE(cobra_result.complete);
  EXPECT_EQ(cobra_result.jobs[0]->failed, 2u);
  // BIPS needs every vertex to sample neighbours: loud, contextual error.
  const auto bips_plan =
      plan_campaign(ScenarioSpec::parse_string(base + "name = bips\n"));
  expect_spec_error([&] { run_campaign(bips_plan); }, "isolated vertices");
}

TEST(Journal, PartialFrameFromKillIsDroppedOnResume) {
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  const std::string stem = test_temp_dir() + "scenario_partial";
  for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  CampaignOptions two_jobs;
  two_jobs.output = stem;
  two_jobs.max_jobs = 2;
  run_campaign(plan, two_jobs);
  // Simulate a kill mid-append: a frame with no trailing newline.
  {
    std::ofstream out(stem + ".journal", std::ios::app | std::ios::binary);
    out << "job 3 57 0 0 truncat";
  }
  CampaignOptions finish;
  finish.output = stem;
  const auto result = run_campaign(plan, finish);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.resumed, 2u);   // the two valid frames survived
  EXPECT_EQ(result.executed, 2u);  // the garbled job was re-run

  // Byte-identical to an uninterrupted campaign despite the corruption.
  const std::string clean = test_temp_dir() + "scenario_partial_clean";
  for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((clean + ext).c_str());
  }
  CampaignOptions reference;
  reference.output = clean;
  run_campaign(plan, reference);
  EXPECT_EQ(read_file(stem + ".jsonl"), read_file(clean + ".jsonl"));
}

TEST(SpecRender, RoundTripIsIdentityAndKeepsOverrides) {
  ScenarioSpec spec = ScenarioSpec::parse_string(kTinySpec);
  // CLI-style override lands in the rendered text, so a shipped spec
  // carries exactly what was planned (the dist handshake depends on this).
  spec.set("campaign", "trials", "8");
  const std::string rendered = spec.render();
  EXPECT_NE(rendered.find("trials = 8"), std::string::npos);
  const ScenarioSpec reparsed = ScenarioSpec::parse_string(rendered);
  EXPECT_EQ(reparsed.render(), rendered);
  EXPECT_EQ(plan_campaign(spec).fingerprint,
            plan_campaign(reparsed).fingerprint);
}

TEST(Journal, MergeDropsSecondFrameForSameJob) {
  const auto spec = ScenarioSpec::parse_string(kTinySpec);
  const auto plan = plan_campaign(spec);
  const std::string path = test_temp_dir() + "scenario_merge.journal";
  std::remove(path.c_str());
  JobResult result;
  result.trials = plan.trials;
  const double rounds[] = {5.0};
  result.rounds = summarize(rounds);
  result.transmissions = summarize(rounds);
  result.graph_name = "g";
  {
    Journal journal(path, plan, /*resume=*/true);
    EXPECT_TRUE(journal.merge(1, result));
    EXPECT_FALSE(journal.merge(1, result));  // duplicate frame dropped
    EXPECT_TRUE(journal.contains(1));
  }
  Journal reloaded(path, plan, /*resume=*/true);
  EXPECT_EQ(reloaded.restored().size(), 1u);
  EXPECT_FALSE(reloaded.merge(1, result));  // still idempotent after reopen
  std::remove(path.c_str());
}

TEST(Journal, OlderFormatVersionIsRefusedOnResume) {
  // A v1 journal was written by a build whose random_regular drew other
  // graphs for the same (spec, seed), under the same plan fingerprint.
  // Resuming it would mix the two samplers' results in one sink.
  const auto plan = plan_campaign(ScenarioSpec::parse_string(kTinySpec));
  const std::string stem = test_temp_dir() + "scenario_v1";
  for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  char header[96];
  std::snprintf(header, sizeof header,
                "cobra-scenario-journal v1 fp=%016llx jobs=%zu\n",
                static_cast<unsigned long long>(plan.fingerprint),
                plan.jobs.size());
  write_file(stem + ".journal", header);
  CampaignOptions options;
  options.output = stem;
  expect_spec_error([&] { run_campaign(plan, options); },
                    "has format v1 but this build writes v2");
  // Starting fresh discards it.
  options.resume = false;
  EXPECT_TRUE(run_campaign(plan, options).complete);
  for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
}

TEST(Journal, FramesAreInTheFileWhenAppendReturns) {
  // Group commit defers only the fsync: a kill -9 right after append()
  // returns must find the frame in the file.
  const auto plan = plan_campaign(ScenarioSpec::parse_string(kTinySpec));
  const std::string path = test_temp_dir() + "scenario_flushed.journal";
  std::remove(path.c_str());
  JobResult result;
  result.trials = plan.trials;
  const double rounds[] = {7.0};
  result.rounds = summarize(rounds);
  result.transmissions = summarize(rounds);
  result.graph_name = "g";
  Journal journal(path, plan, /*resume=*/false);
  journal.note("graph built");
  journal.append(2, result);
  const std::string payload = serialize_job_result(result);
  EXPECT_NE(read_file(path).find("note graph built\njob 2 " +
                                 std::to_string(payload.size()) + " " +
                                 payload + "\n"),
            std::string::npos);
  journal.close();
  journal.close();  // idempotent
  Journal reloaded(path, plan, /*resume=*/true);
  EXPECT_EQ(reloaded.restored().size(), 1u);
  EXPECT_TRUE(reloaded.contains(2));
  reloaded.close();
  std::remove(path.c_str());
}

TEST(CampaignSinks, FullDiskThrowsInsteadOfTruncating) {
  if (std::ifstream("/dev/full").fail()) GTEST_SKIP() << "no /dev/full";
  const auto plan = plan_campaign(ScenarioSpec::parse_string(kTinySpec));
  const CampaignResult result = run_campaign(plan, CampaignOptions{});
  ASSERT_TRUE(result.complete);
  const std::string stem = test_temp_dir() + "scenario_full_disk";
  for (const char* ext : {".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
    ASSERT_EQ(::symlink("/dev/full", (stem + ext).c_str()), 0) << ext;
  }
  expect_spec_error([&] { write_campaign_sinks(plan, result.jobs, stem); },
                    "failed writing '" + stem + ".jsonl'");
  for (const char* ext : {".jsonl", ".csv"}) std::remove((stem + ext).c_str());
  // The CSV alone on a full disk fails too.
  ASSERT_EQ(::symlink("/dev/full", (stem + ".csv").c_str()), 0);
  expect_spec_error([&] { write_campaign_sinks(plan, result.jobs, stem); },
                    "failed writing '" + stem + ".csv'");
  for (const char* ext : {".jsonl", ".csv"}) std::remove((stem + ext).c_str());
}

TEST(Sweep, StartRotationSkipsIsolatedVertices) {
  // Vertices 0..3 form a 4-cycle; vertex 4 is isolated. The rotation must
  // never hand a degree-0 start to a process.
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 0);
  const Graph g = builder.build("cycle_plus_isolated");
  EXPECT_EQ(spreadable_starts(g),
            (std::vector<Vertex>{0, 1, 2, 3}));
  TrialOptions trials;
  trials.trials = 10;  // > 5, so the old i % n rotation would hit vertex 4
  const auto measurement = measure_spread(
      g, trials, [&](Vertex start, Rng& rng) {
        PushOptions options;
        options.max_rounds = 64;
        return run_push(g, start, options, rng);
      });
  // Cover can never complete (vertex 4 is unreachable), but no trial may
  // crash or hang on an empty neighbourhood.
  EXPECT_EQ(measurement.failed, 10u);
  const Graph empty = GraphBuilder(3).build("no_edges");
  EXPECT_THROW(spreadable_starts(empty), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::scenario

// SPDX-License-Identifier: MIT
//
// Fault-injection layer tests (core/faults.hpp):
//  (a) faults-off parity — attaching then detaching a fault model leaves
//      every registry process bitwise identical to never attaching one,
//  (b) the conservation invariant tx == delivered + dropped + blocked and
//      the energy identity, per process, under a mixed fault load,
//  (c) churn/duty edge cases: an always-down graph freezes every process
//      at its start state with zero transmissions, and a never-awake duty
//      cycle blocks every message while senders keep paying for them,
//  (d) campaign-level determinism: a faulty campaign's results are
//      identical at 1/2/8 worker threads, and a killed-and-resumed faulty
//      campaign reproduces the uninterrupted sinks byte-for-byte,
//  (e) [faults] spec validation (unknown keys, malformed and non-finite
//      values, swept process names), the integer drop threshold and the
//      journal payload round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/process.hpp"
#include "core/process_factory.hpp"
#include "graph/generators.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

using scenario::CampaignOptions;
using scenario::SpecError;

/// Every registry process, with a round budget small enough that even a
/// trial frozen solid by faults finishes the test quickly.
const std::vector<std::pair<std::string, std::string>> kBoundedRounds = {
    {"max_rounds", "2048"}};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

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

// ---- (a) faults-off parity ----

TEST(Faults, AttachThenDetachIsBitwiseIdenticalToNeverAttached) {
  // Min degree >= 1 everywhere so bips/sis construct; expander keeps
  // every process short.
  Rng graph_rng(42);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  FaultOptions options;
  options.drop = 0.5;
  options.churn = 0.5;
  const FaultModel model(g.num_vertices(), options);
  for (const std::string& name : process_names()) {
    for (const std::uint64_t seed : {7ull, 12345ull}) {
      const auto baseline = make_process(g, name, kBoundedRounds);
      const SpreadResult expected = baseline->run(Rng(seed), 0);
      const auto detached = make_process(g, name, kBoundedRounds);
      detached->set_fault_model(&model);
      detached->set_fault_model(nullptr);  // restores the untouched path
      EXPECT_EQ(detached->run(Rng(seed), 0), expected) << name;
      EXPECT_EQ(detached->fault_session(), nullptr) << name;
    }
  }
}

// ---- (b) conservation + energy, per process ----

TEST(Faults, ConservationAndEnergyIdentityPerProcess) {
  Rng graph_rng(43);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  FaultOptions options;
  options.drop = 0.2;
  options.churn = 0.1;
  options.duty_period = 4;
  options.duty_awake = 3;
  options.energy_tx = 2.0;
  options.energy_rx = 0.75;
  options.energy_idle = 0.125;
  const FaultModel model(g.num_vertices(), options);
  for (const std::string& name : process_names()) {
    const auto process = make_process(g, name, kBoundedRounds);
    process->set_fault_model(&model);
    (void)process->run(Rng(99), 0);
    const FaultSession* fs = process->fault_session();
    ASSERT_NE(fs, nullptr) << name;
    EXPECT_EQ(fs->tx_total(), fs->delivered_total() + fs->dropped_total() +
                                  fs->blocked_total())
        << name;
    EXPECT_GT(fs->tx_total(), 0u) << name;
    const double expected_energy =
        options.energy_tx * static_cast<double>(fs->tx_total()) +
        options.energy_rx * static_cast<double>(fs->delivered_total()) +
        options.energy_idle * static_cast<double>(fs->listen_total());
    EXPECT_DOUBLE_EQ(fs->total_energy(), expected_energy) << name;
    // Per-vertex energies sum to the total (delivered == sum of rx).
    double vertex_sum = 0.0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      vertex_sum += fs->vertex_energy(v);
    }
    EXPECT_NEAR(vertex_sum, expected_energy,
                1e-9 * (1.0 + std::abs(expected_energy)))
        << name;
    // The SpreadResult mirrors the session's totals.
    const SpreadResult result = process->result();
    EXPECT_EQ(result.delivered, fs->delivered_total()) << name;
    EXPECT_EQ(result.dropped_channel, fs->dropped_total()) << name;
    EXPECT_EQ(result.blocked_receiver, fs->blocked_total()) << name;
    EXPECT_DOUBLE_EQ(result.energy, fs->total_energy()) << name;
  }
}

// ---- (c) churn / duty edge cases ----

TEST(Faults, AlwaysDownChurnFreezesEveryProcessAtItsStart) {
  const Graph g = gen::cycle(24);
  FaultOptions options;
  options.churn = 1.0;  // every vertex down every round
  const FaultModel model(g.num_vertices(), options);
  // Walk-style processes tolerate a down start vertex at round 0: the
  // token/particles simply wait (documented behaviour, satellite check).
  for (const char* name : {"cobra", "push", "flood", "walk",
                           "branching-walk", "push-pull", "pull"}) {
    const auto process = make_process(g, name, {{"max_rounds", "64"}});
    process->set_fault_model(&model);
    const SpreadResult result = process->run(Rng(5), 0);
    EXPECT_FALSE(result.completed) << name;
    EXPECT_EQ(process->reached_count(), 1u) << name;
    const FaultSession* fs = process->fault_session();
    EXPECT_EQ(fs->tx_total(), 0u) << name;  // down vertices never send
    EXPECT_EQ(fs->listen_total(), 0u) << name;  // ...nor idle-listen
    EXPECT_DOUBLE_EQ(fs->total_energy(), 0.0) << name;
  }
}

TEST(Faults, NeverAwakeDutyCycleBlocksEveryMessage) {
  const Graph g = gen::cycle(24);
  FaultOptions options;
  options.duty_period = 4;
  options.duty_awake = 0;  // the whole graph sleeps every round
  const FaultModel model(g.num_vertices(), options);
  for (const char* name : {"cobra", "push", "flood", "branching-walk"}) {
    const auto process = make_process(g, name, {{"max_rounds", "64"}});
    process->set_fault_model(&model);
    const SpreadResult result = process->run(Rng(6), 0);
    EXPECT_FALSE(result.completed) << name;
    EXPECT_EQ(process->reached_count(), 1u) << name;
    const FaultSession* fs = process->fault_session();
    EXPECT_GT(fs->tx_total(), 0u) << name;  // asleep vertices still send
    EXPECT_EQ(fs->delivered_total(), 0u) << name;
    EXPECT_EQ(fs->blocked_total(), fs->tx_total()) << name;
    EXPECT_EQ(fs->dropped_total(), 0u) << name;
  }
}

TEST(Faults, PeriodicChurnAndDutyCycleStillCover) {
  // Mild periodic schedules delay but do not stop coverage.
  Rng graph_rng(44);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  FaultOptions options;
  options.churn_period = 8;
  options.churn_down = 1;
  options.duty_period = 3;
  options.duty_awake = 2;
  const FaultModel model(g.num_vertices(), options);
  const auto faulty = make_process(g, "cobra", kBoundedRounds);
  faulty->set_fault_model(&model);
  const SpreadResult with_faults = faulty->run(Rng(7), 0);
  EXPECT_TRUE(with_faults.completed);
  const auto clean = make_process(g, "cobra", kBoundedRounds);
  const SpreadResult without = clean->run(Rng(7), 0);
  EXPECT_GE(with_faults.rounds, without.rounds);
}

// ---- (d) campaign-level determinism ----

constexpr const char* kFaultySpec = R"(
[campaign]
name = faulty
trials = 4
base_seed = 77
seeds = 0

[graph]
family = cycle
n = 32

[process]
name = cobra, push
max_rounds = 4096

[faults]
drop = 0.0, 0.3
duty_cycle = 3/4
)";

TEST(FaultsCampaign, DeterministicAcrossThreadCounts) {
  const auto spec = scenario::ScenarioSpec::parse_string(kFaultySpec);
  const auto plan = scenario::plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 4u);  // 2 names x 2 drop values
  std::vector<std::vector<std::string>> payloads;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    CampaignOptions options;
    options.threads = threads;
    const auto result = scenario::run_campaign(plan, options);
    ASSERT_TRUE(result.complete);
    std::vector<std::string> run;
    for (const auto& job : plan.jobs) {
      run.push_back(scenario::serialize_job_result(*result.jobs[job.index]));
    }
    payloads.push_back(std::move(run));
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0], payloads[2]);
}

TEST(FaultsCampaign, KilledAndResumedSinksAreByteIdentical) {
  const auto spec = scenario::ScenarioSpec::parse_string(kFaultySpec);
  const auto plan = scenario::plan_campaign(spec);
  const std::string dir = test_temp_dir();
  const std::string uninterrupted = dir + "faults_uninterrupted";
  const std::string interrupted = dir + "faults_interrupted";
  for (const auto& stem : {uninterrupted, interrupted}) {
    for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
      std::remove((stem + ext).c_str());
    }
  }
  CampaignOptions full;
  full.output = uninterrupted;
  ASSERT_TRUE(scenario::run_campaign(plan, full).complete);

  CampaignOptions stop_early;
  stop_early.output = interrupted;
  stop_early.max_jobs = 1;
  EXPECT_FALSE(scenario::run_campaign(plan, stop_early).complete);
  CampaignOptions finish;
  finish.output = interrupted;
  ASSERT_TRUE(scenario::run_campaign(plan, finish).complete);

  EXPECT_EQ(read_file(uninterrupted + ".jsonl"),
            read_file(interrupted + ".jsonl"));
  EXPECT_EQ(read_file(uninterrupted + ".csv"),
            read_file(interrupted + ".csv"));
  // The faulty CSV leads with the extended header and the JSONL records
  // carry the fault block.
  const std::string csv = read_file(uninterrupted + ".csv");
  EXPECT_EQ(csv.substr(0, csv.find('\n')), scenario::csv_header(true));
  EXPECT_NE(read_file(uninterrupted + ".jsonl").find("\"pdr\""),
            std::string::npos);
}

TEST(FaultsCampaign, FingerprintSeparatesFaultSchedules) {
  const std::string base(kFaultySpec);
  const auto plan_a =
      scenario::plan_campaign(scenario::ScenarioSpec::parse_string(base));
  std::string changed = base;
  const std::size_t at = changed.find("drop = 0.0, 0.3");
  ASSERT_NE(at, std::string::npos);
  changed.replace(at, 15, "drop = 0.0, 0.4");
  const auto plan_b =
      scenario::plan_campaign(scenario::ScenarioSpec::parse_string(changed));
  EXPECT_NE(plan_a.fingerprint, plan_b.fingerprint);
}

// ---- (e) spec validation + journal payloads ----

TEST(FaultsSpec, RejectsUnknownKeysAndMalformedValues) {
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
            "[faults]\ndorp = 0.1\n",
            "s.scenario"));
      },
      "s.scenario:7: unknown [faults] key 'dorp'");
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
            "[faults]\ndrop = 1.5\n",
            "s.scenario"));
      },
      "[faults]");
  // std::stod parses these; a NaN would pass every range check written
  // with < and >, and would reach the JSONL sink as a bare `nan`.
  const std::pair<std::string, std::string> non_finite[] = {
      {"drop", "nan"},        {"drop", "inf"},     {"churn", "-nan"},
      {"energy_idle", "nan"}, {"energy_tx", "inf"}, {"energy_rx", "-infinity"}};
  for (const auto& [key, value] : non_finite) {
    expect_spec_error(
        [&] {
          scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
              "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
              "[faults]\n" + key + " = " + value + "\n",
              "s.scenario"));
        },
        "parameter '" + key + "' expects a finite number, got '" + value +
            "'");
  }
  // FaultOptions built in code skip the parser; the model still rejects a
  // NaN probability and a non-finite energy cost.
  FaultOptions bad[4];
  bad[0].drop = std::nan("");
  bad[1].churn = std::nan("");
  bad[2].energy_idle = std::nan("");
  bad[3].energy_tx = std::numeric_limits<double>::infinity();
  for (const FaultOptions& options : bad) {
    EXPECT_THROW(FaultModel(8, options), std::invalid_argument);
  }
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n"
            "[process]\nname = cobra, not-a-process\n",
            "s.scenario"));
      },
      "unknown process 'not-a-process'");
  // A swept key must be valid for every process in the name sweep.
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n"
            "[process]\nname = cobra, flood\nk = 2\n",
            "s.scenario"));
      },
      "process 'flood' has no parameter 'k'");
}

TEST(FaultsSpec, EveryFaultKeyIsAccepted) {
  for (const FaultParamSpec& param : fault_param_specs()) {
    EXPECT_TRUE(fault_has_param(param.key)) << param.key;
  }
  EXPECT_FALSE(fault_has_param("nope"));
}

TEST(Faults, IntegerDropThresholdDecidesExactlyAsTheUnitDouble) {
  // The channel drops a message when (h >> 11) < unit_threshold(drop);
  // the reference decision is the 53-bit unit double against drop.
  const auto unit_drop = [](std::uint64_t h, double drop) {
    return static_cast<double>(h >> 11) * 0x1.0p-53 < drop;
  };
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const double drop :
       {0x1.0p-53, 0.2, 0.3, 0.5, 1.0 - 0x1.0p-53, 1.0}) {
    const std::uint64_t threshold = FaultSession::unit_threshold(drop);
    ASSERT_LE(threshold, kTop) << drop;
    // At, just below and just above the threshold, with the 11 low bits
    // that the decision ignores both clear and set.
    for (const std::uint64_t x :
         {threshold - 1, threshold, threshold + 1, std::uint64_t{0},
          kTop - 1}) {
      if (x >= kTop) continue;
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
        const std::uint64_t h = x << 11 | low;
        EXPECT_EQ((h >> 11) < threshold, unit_drop(h, drop))
            << "drop " << drop << ", x " << x;
      }
    }
  }
  EXPECT_EQ(FaultSession::unit_threshold(0.0), 0u);
  EXPECT_EQ(FaultSession::unit_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(FaultSession::unit_threshold(1.0), kTop);
}

TEST(FaultsJournal, PayloadRoundTripsAndLegacyParses) {
  scenario::JobResult result;
  result.trials = 8;
  result.failed = 1;
  result.rounds.count = 7;
  result.rounds.mean = 12.5;
  result.rounds.max = 20.0;
  result.transmissions.count = 7;
  result.transmissions.mean = 321.0;
  result.graph_name = "cycle_n32";
  result.faulty = true;
  result.pdr.count = 7;
  result.pdr.mean = 0.73;
  result.energy.count = 7;
  result.energy.mean = 4096.25;
  result.delivered = 1000;
  result.dropped = 250;
  result.blocked = 99;
  const std::string payload = scenario::serialize_job_result(result);
  scenario::JobResult parsed;
  ASSERT_TRUE(scenario::parse_job_result(payload, parsed));
  EXPECT_TRUE(parsed.faulty);
  EXPECT_EQ(parsed.delivered, 1000u);
  EXPECT_EQ(parsed.dropped, 250u);
  EXPECT_EQ(parsed.blocked, 99u);
  EXPECT_DOUBLE_EQ(parsed.pdr.mean, 0.73);
  EXPECT_DOUBLE_EQ(parsed.energy.mean, 4096.25);
  EXPECT_EQ(parsed.graph_name, "cycle_n32");
  // Round trip is exact: re-serializing reproduces the payload.
  EXPECT_EQ(scenario::serialize_job_result(parsed), payload);

  // A faults-off payload (the pre-fault-layer format) still parses, with
  // the fault block defaulted.
  result.faulty = false;
  const std::string legacy = scenario::serialize_job_result(result);
  EXPECT_EQ(legacy.find(" F "), std::string::npos);
  scenario::JobResult legacy_parsed;
  // Poison the fields to prove the parser resets them.
  legacy_parsed.faulty = true;
  legacy_parsed.delivered = 123;
  ASSERT_TRUE(scenario::parse_job_result(legacy, legacy_parsed));
  EXPECT_FALSE(legacy_parsed.faulty);
  EXPECT_EQ(legacy_parsed.delivered, 0u);
  EXPECT_EQ(legacy_parsed.graph_name, "cycle_n32");
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Every shipped examples/scenarios/engine_*.scenario, run serially and on
// three threads, writes sinks whose FNV-1a digest (the .jsonl bytes, then
// the .csv bytes) matches a constant recorded from a known-good build.
// The engine specs cover what the perfbench expanders do not: irregular
// graphs, word-boundary sizes, curves, alias draws, round budgets and
// faults, for COBRA, BIPS and the push family (push and push-pull on the
// weighted torus). Results are a pure function of (spec, seed),
// so a change to any result bit, to the thread-count independence or to
// the sink format fails here. A new engine spec needs a recorded digest.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/campaign.hpp"
#include "scenario/spec.hpp"
#include "test_support.hpp"

namespace cobra::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(EngineSpecs, SinksMatchRecordedDigestsAtThreads0And3) {
  const std::map<std::string, std::uint64_t> golden = {
      {"engine_bips_expander", 0x8fd0a6d980cebaffULL},
      {"engine_bips_lollipop", 0xa64f10edd5c04d73ULL},
      {"engine_bips_rho", 0x595c09774c062bd5ULL},
      {"engine_bips_weighted_torus", 0x32418aea2d1dafd5ULL},
      {"engine_cycle", 0x2d7f4164ce8cb7f2ULL},
      {"engine_lollipop", 0x42b9596dcd626ffdULL},
      {"engine_push_family", 0xbffecfe6436475bfULL},
      {"engine_weighted_torus", 0x52f8da91586a945bULL},
  };
  std::vector<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(COBRA_SCENARIO_DIR)) {
    const std::filesystem::path& path = entry.path();
    if (path.extension() == ".scenario" &&
        path.stem().string().rfind("engine_", 0) == 0) {
      specs.push_back(path);
    }
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_EQ(specs.size(), golden.size());
  for (const std::filesystem::path& spec : specs) {
    const std::string name = spec.stem().string();
    const auto expected = golden.find(name);
    ASSERT_NE(expected, golden.end()) << name << " has no recorded digest";
    const CampaignPlan plan = plan_campaign(ScenarioSpec::load(spec.string()));
    for (const std::size_t threads : {0, 3}) {
      const std::string tag = name + "_t" + std::to_string(threads);
      CampaignOptions options;
      options.threads = threads;
      options.output = test_temp_dir() + tag;
      options.resume = false;
      EXPECT_TRUE(run_campaign(plan, options).complete) << tag;
      Fnv1a hash;
      hash.add_bytes(read_file(options.output + ".jsonl"));
      hash.add_bytes(read_file(options.output + ".csv"));
      EXPECT_EQ(hash.value(), expected->second) << tag;
    }
  }
}

}  // namespace
}  // namespace cobra::scenario

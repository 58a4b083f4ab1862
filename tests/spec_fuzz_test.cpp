// SPDX-License-Identifier: MIT
//
// Robustness of the .scenario parser and the campaign planner against
// hostile text: a deterministic mutation fuzz over every shipped
// examples/scenarios/*.scenario (seeded byte flips and overwrites, deleted,
// duplicated and truncated lines, splices between specs, and swaps among
// the grammar's tokens = , .. * + # [ ]). For every mutant:
//  * ScenarioSpec::parse_string throws SpecError or returns a spec whose
//    render() parses back to the same render();
//  * plan_campaign on the parsed spec throws SpecError or returns a plan,
//    and planning the rendered spec gives the same fingerprint;
//  * nothing else is thrown. It runs in the sanitizer builds too, where an
//    out-of-bounds access or undefined behaviour fails it.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rand/rng.hpp"
#include "scenario/campaign.hpp"
#include "scenario/spec.hpp"

namespace cobra::scenario {
namespace {

std::vector<std::string> load_corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(COBRA_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scenario") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  return corpus;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       std::size_t begin, std::size_t end) {
  std::string text;
  for (std::size_t i = begin; i < end; ++i) text += lines[i] + '\n';
  return text;
}

std::size_t below(Rng& rng, std::size_t bound) {
  return static_cast<std::size_t>(rng.next_below(bound));
}

constexpr std::array<std::string_view, 8> kTokens = {"=", ",", "..", "*",
                                                     "+", "#", "[",  "]"};

/// Replaces one occurrence of a grammar token with a different token.
void swap_token(std::string& text, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> sites;  // (pos, token)
  for (std::size_t t = 0; t < kTokens.size(); ++t) {
    for (std::size_t pos = text.find(kTokens[t]); pos != std::string::npos;
         pos = text.find(kTokens[t], pos + 1)) {
      sites.emplace_back(pos, t);
    }
  }
  if (sites.empty()) return;
  const auto [pos, from] = sites[below(rng, sites.size())];
  const std::size_t to = (from + 1 + below(rng, kTokens.size() - 1)) %
                         kTokens.size();
  text.replace(pos, kTokens[from].size(), kTokens[to]);
}

/// One mutant of corpus[base]: one to three seeded edits.
std::string mutate(const std::vector<std::string>& corpus, std::size_t base,
                   Rng& rng) {
  std::string text = corpus[base];
  const std::size_t edits = 1 + below(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    std::vector<std::string> lines = split_lines(text);
    switch (below(rng, 7)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[below(rng, text.size())] ^=
              static_cast<char>(1u << below(rng, 8));
        }
        break;
      case 1:  // overwrite one byte with any value
        if (!text.empty()) {
          text[below(rng, text.size())] = static_cast<char>(below(rng, 256));
        }
        break;
      case 2:  // delete a line
        if (!lines.empty()) {
          lines.erase(lines.begin() +
                      static_cast<std::ptrdiff_t>(below(rng, lines.size())));
          text = join_lines(lines, 0, lines.size());
        }
        break;
      case 3:  // duplicate a line in place
        if (!lines.empty()) {
          const std::size_t at = below(rng, lines.size());
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                       lines[at]);
          text = join_lines(lines, 0, lines.size());
        }
        break;
      case 4:  // truncate, possibly mid-line
        text.resize(below(rng, text.size() + 1));
        break;
      case 5: {  // splice: this spec's head onto another spec's tail
        const std::vector<std::string> other =
            split_lines(corpus[below(rng, corpus.size())]);
        const std::size_t head = below(rng, lines.size() + 1);
        const std::size_t tail = below(rng, other.size() + 1);
        text = join_lines(lines, 0, head) +
               join_lines(other, tail, other.size());
        break;
      }
      default:
        swap_token(text, rng);
    }
  }
  return text;
}

enum class Outcome { kParseRejected, kPlanRejected, kPlanned };

/// Checks the properties above for one mutant; a SpecError from either
/// step is a rejection, anything else escapes to the caller.
Outcome check_mutant(const std::string& text) {
  ScenarioSpec spec;
  try {
    spec = ScenarioSpec::parse_string(text, "mutant");
  } catch (const SpecError&) {
    return Outcome::kParseRejected;
  }
  const std::string rendered = spec.render();
  const ScenarioSpec reparsed = ScenarioSpec::parse_string(rendered, "mutant");
  EXPECT_EQ(reparsed.render(), rendered);
  CampaignPlan plan;
  try {
    plan = plan_campaign(spec);
  } catch (const SpecError&) {
    return Outcome::kPlanRejected;
  }
  EXPECT_EQ(plan_campaign(reparsed).fingerprint, plan.fingerprint);
  return Outcome::kPlanned;
}

TEST(SpecFuzz, ParserAndPlannerRejectOrRoundTripEveryMutant) {
  const std::vector<std::string> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const std::string& text : corpus) {
    ASSERT_EQ(check_mutant(text), Outcome::kPlanned);
  }
  constexpr std::size_t kMutantsPerSpec = 2000;
  std::array<std::size_t, 3> outcomes{};
  for (std::size_t base = 0; base < corpus.size(); ++base) {
    for (std::size_t i = 0; i < kMutantsPerSpec; ++i) {
      Rng rng = Rng::for_trial(0x5ce9a210, base * kMutantsPerSpec + i);
      const std::string text = mutate(corpus, base, rng);
      try {
        ++outcomes[static_cast<std::size_t>(check_mutant(text))];
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what();
      }
      if (HasFailure()) {
        FAIL() << "spec " << base << ", mutant " << i << ":\n" << text;
      }
    }
  }
  // Each outcome must be common, or the fuzz exercises too little.
  const std::size_t total = corpus.size() * kMutantsPerSpec;
  for (const std::size_t count : outcomes) EXPECT_GT(count, total / 20);
  std::printf("parse rejected %zu, plan rejected %zu, planned %zu\n",
              outcomes[0], outcomes[1], outcomes[2]);
}

}  // namespace
}  // namespace cobra::scenario

// SPDX-License-Identifier: MIT
//
// Observability layer tests: sharded metrics merge deterministically
// whatever the thread count, trace files are valid Chrome trace-event
// JSON with per-thread nested spans, status.json renders/rewrites
// atomically, per-round recording samples correctly — and, the layer's
// defining invariant, telemetry never perturbs campaign results: the
// JSONL/CSV sinks are byte-identical with telemetry on or off, and the
// plan fingerprint ignores the [telemetry] section entirely.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/rounds.hpp"
#include "obs/trace.hpp"
#include "protocols/push.hpp"
#include "scenario/campaign.hpp"
#include "scenario/spec.hpp"
#include "scenario/telemetry.hpp"
#include "sim/thread_pool.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- a minimal JSON syntax validator (no deps, full grammar) ----

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(
        static_cast<unsigned char>(text_[pos_ - 1]));
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) {
  return JsonValidator(text).valid();
}

// ---- metrics registry ----

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  const obs::CounterId c = registry.counter("events");
  const obs::GaugeId g = registry.gauge("level");
  const obs::HistogramId h = registry.histogram("latency", 1e-6);

  registry.add(c);
  registry.add(c, 9);
  registry.set(g, 2.5);
  registry.observe(h, 5e-6);
  registry.observe(h, 1e-3);

  EXPECT_EQ(registry.counter_value(c), 10u);
  EXPECT_DOUBLE_EQ(registry.gauge_value(g), 2.5);
  const obs::HistogramSnapshot snap = registry.histogram_value(h);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_NEAR(snap.sum, 5e-6 + 1e-3, 1e-12);
  EXPECT_NEAR(snap.mean(), (5e-6 + 1e-3) / 2, 1e-12);
}

TEST(Metrics, RegistrationAfterFirstShardThrows) {
  obs::MetricsRegistry registry;
  const obs::CounterId c = registry.counter("early");
  registry.add(c);  // materializes this thread's shard, sealing the registry
  EXPECT_THROW(registry.counter("late"), std::logic_error);
  EXPECT_THROW(registry.gauge("late"), std::logic_error);
  EXPECT_THROW(registry.histogram("late"), std::logic_error);
}

TEST(Metrics, MergeIsThreadCountIndependent) {
  // The same 10k updates, dispatched over 0, 2, and 8 threads, must merge
  // to identical totals — merging sums per-thread shards, so the result
  // is a pure function of the updates performed.
  constexpr std::size_t kUpdates = 10000;
  std::uint64_t counts[3];
  double sums[3];
  std::uint64_t histogram_counts[3];
  const std::size_t thread_counts[3] = {0, 2, 8};
  for (int v = 0; v < 3; ++v) {
    obs::MetricsRegistry registry;
    const obs::CounterId c = registry.counter("n");
    const obs::HistogramId h = registry.histogram("value", 1.0);
    const auto body = [&](std::size_t i) {
      registry.add(c);
      registry.observe(h, static_cast<double>(i % 64));
    };
    if (thread_counts[v] == 0) {
      for (std::size_t i = 0; i < kUpdates; ++i) body(i);
    } else {
      ThreadPool pool(thread_counts[v]);
      pool.parallel_for(kUpdates, body);
      EXPECT_GE(registry.shards(), 1u);
    }
    counts[v] = registry.counter_value(c);
    const obs::HistogramSnapshot snap = registry.histogram_value(h);
    sums[v] = snap.sum;
    histogram_counts[v] = snap.count;
  }
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(counts[v], kUpdates);
    EXPECT_EQ(histogram_counts[v], kUpdates);
    EXPECT_DOUBLE_EQ(sums[v], sums[0]);
  }
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(obs::histogram_bucket(0.0, 1.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(0.5, 1.0), 0u);
  // Bucket b >= 1 covers [base * 2^(b-1), base * 2^b).
  EXPECT_EQ(obs::histogram_bucket(1.0, 1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket(1.9, 1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket(2.0, 1.0), 2u);
  EXPECT_EQ(obs::histogram_bucket(1024.0, 1.0), 11u);

  obs::MetricsRegistry registry;
  const obs::HistogramId h = registry.histogram("v", 1.0);
  for (int i = 0; i < 100; ++i) registry.observe(h, 1.5);  // bucket 1
  registry.observe(h, 1000.0);                             // bucket 10
  const obs::HistogramSnapshot snap = registry.histogram_value(h);
  // The p50 upper bound sits at bucket 1's upper edge; p100 covers the
  // outlier's bucket.
  EXPECT_DOUBLE_EQ(snap.quantile_upper(0.5, 1.0), 2.0);
  EXPECT_GE(snap.quantile_upper(1.0, 1.0), 1000.0);
}

// ---- trace collector ----

TEST(Trace, FileIsValidJsonWithNestedSpansPerThread) {
  obs::TraceCollector trace;
  {
    obs::TraceSpan outer(&trace, "outer");
    { obs::TraceSpan inner(&trace, "inner", "detail \"quoted\"\n"); }
  }
  ThreadPool pool(2);
  pool.parallel_for(8, [&trace](std::size_t i) {
    obs::TraceSpan span(&trace, "chunk");
    (void)i;
  });
  EXPECT_EQ(trace.event_count(), 10u);

  const std::string path = test_temp_dir() + "obs_trace.json";
  std::remove(path.c_str());
  ASSERT_TRUE(trace.write(path));
  const std::string text = read_file(path);
  EXPECT_TRUE(json_valid(text)) << text.substr(0, 200);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // Per-track begin-time ordering: the outer span (earlier start) must be
  // emitted before the inner one, which is how Perfetto nests slices.
  EXPECT_LT(text.find("\"outer\""), text.find("\"inner\""));
}

TEST(Trace, NullCollectorSpansAreNoops) {
  obs::TraceSpan span(nullptr, "ignored");
  obs::TraceSpan with_detail(nullptr, "ignored", "detail");
  SUCCEED();
}

TEST(Trace, WriteToBadPathFailsCleanly) {
  obs::TraceCollector trace;
  { obs::TraceSpan span(&trace, "x"); }
  EXPECT_FALSE(trace.write("/nonexistent_dir_obs_test/x.json"));
}

// ---- progress / status.json ----

obs::ProgressSnapshot sample_snapshot() {
  obs::ProgressSnapshot s;
  s.campaign = "demo \"quoted\"";
  s.jobs_total = 36;
  s.jobs_done = 12;
  s.jobs_resumed = 4;
  s.trials_done = 3456;
  s.graph_builds = 3;
  s.graph_build_seconds = 0.25;
  s.elapsed_seconds = 10.0;
  s.trials_per_sec = 345.6;
  s.eta_seconds = 20.0;
  s.peak_rss_bytes = 1 << 20;
  obs::ProgressSnapshot::Worker w;
  w.chunks = 7;
  w.busy_seconds = 8.0;
  w.utilization = 0.8;
  s.workers.push_back(w);
  return s;
}

TEST(Progress, StatusJsonIsValidAndCarriesSchema) {
  const std::string text = obs::render_status_json(sample_snapshot());
  EXPECT_TRUE(json_valid(text)) << text;
  for (const char* key :
       {"\"campaign\"", "\"jobs_total\"", "\"jobs_done\"", "\"jobs_resumed\"",
        "\"trials_done\"", "\"elapsed_seconds\"", "\"trials_per_sec\"",
        "\"eta_seconds\"", "\"peak_rss_bytes\"", "\"graph_builds\"",
        "\"workers\"", "\"utilization\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(Progress, WriteStatusJsonLeavesNoTempFile) {
  const std::string path = test_temp_dir() + "obs_status.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::write_status_json(path, sample_snapshot()));
  EXPECT_TRUE(json_valid(read_file(path)));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(static_cast<bool>(tmp));
}

TEST(Progress, HeartbeatMentionsJobsAndTrials) {
  const std::string line = obs::render_heartbeat(sample_snapshot());
  EXPECT_NE(line.find("12/36 jobs"), std::string::npos) << line;
  EXPECT_NE(line.find("3456 trials"), std::string::npos) << line;
}

TEST(Progress, PeakRssIsNonZeroOnLinux) {
#ifdef __linux__
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
#endif
}

TEST(Progress, ReporterWritesFinalStatusOnStop) {
  const std::string path = test_temp_dir() + "obs_reporter.json";
  std::remove(path.c_str());
  std::ostringstream heartbeat;
  obs::ProgressReporter::Options options;
  options.interval_seconds = 0.01;
  options.status_path = path;
  options.heartbeat = &heartbeat;
  {
    obs::ProgressReporter reporter(options, [] { return sample_snapshot(); });
    reporter.stop();  // idempotent; destructor stops again harmlessly
  }
  EXPECT_TRUE(json_valid(read_file(path)));
  EXPECT_NE(heartbeat.str().find("jobs"), std::string::npos);
}

// ---- per-round recording ----

TEST(Rounds, RecorderSamplesEveryKthRoundPlusTerminal) {
  const Graph g = gen::complete(32);
  PushProcess process(g);
  obs::RoundRecorder recorder(3);
  process.set_observer(&recorder);
  const SpreadResult result = process.run(Rng(42), Vertex{0});
  ASSERT_TRUE(result.completed);
  const auto& samples = recorder.samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().round, 0u);    // the reset snapshot
  EXPECT_EQ(samples.front().reached, 1u);  // just the start vertex
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    EXPECT_LT(samples[i].round, samples[i + 1].round);  // no duplicates
    if (i > 0) EXPECT_EQ(samples[i].round % 3, 0u);
  }
  EXPECT_EQ(samples.back().round, result.rounds);  // terminal always kept
  EXPECT_EQ(samples.back().reached, g.num_vertices());
  EXPECT_EQ(samples.back().total_transmissions, result.total_transmissions);
  EXPECT_FALSE(samples.back().faulty);
}

TEST(Rounds, SinkWritesSelfIdentifyingJsonLines) {
  const std::string path = test_temp_dir() + "obs_rounds.jsonl";
  std::remove(path.c_str());
  {
    obs::RoundsSink sink(path);
    obs::RoundSample plain;
    plain.round = 2;
    plain.active = 4;
    plain.reached = 7;
    plain.round_transmissions = 4;
    plain.total_transmissions = 6;
    obs::RoundSample faulty = plain;
    faulty.faulty = true;
    faulty.total_delivered = 5;
    faulty.total_dropped = 1;
    faulty.energy = 12.5;
    sink.append_trial(3, 1, {plain, faulty});
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json_valid(line)) << line;
  EXPECT_NE(line.find("\"job\":3"), std::string::npos);
  EXPECT_NE(line.find("\"trial\":1"), std::string::npos);
  EXPECT_EQ(line.find("\"energy\""), std::string::npos);  // fault-free line
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json_valid(line)) << line;
  EXPECT_NE(line.find("\"dropped\":1"), std::string::npos);
  EXPECT_NE(line.find("\"energy\":12.5"), std::string::npos);
}

TEST(Rounds, SinkThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::RoundsSink("/nonexistent_dir_obs_test/r.jsonl"),
               std::runtime_error);
}

// ---- campaign integration: the out-of-band contract ----

constexpr const char* kTelemetrySpec = R"(
[campaign]
name = obs_campaign
trials = 6
base_seed = 4242
seeds = 0..1
threads = 0

[graph]
family = cycle
n = 48,96

[process]
name = cobra
k = 2

[telemetry]
progress = 0.05
trace = 1
rounds = 1
rounds_sample_every = 2
rounds_trials = 2
)";

std::string spec_without_telemetry() {
  std::string spec(kTelemetrySpec);
  return spec.substr(0, spec.find("[telemetry]"));
}

TEST(CampaignTelemetry, SpecSectionParsesAndFingerprintIgnoresIt) {
  using namespace scenario;
  const CampaignPlan with_telemetry =
      plan_campaign(ScenarioSpec::parse_string(kTelemetrySpec));
  const CampaignPlan without =
      plan_campaign(ScenarioSpec::parse_string(spec_without_telemetry()));
  EXPECT_DOUBLE_EQ(with_telemetry.telemetry.progress_interval, 0.05);
  EXPECT_TRUE(with_telemetry.telemetry.trace);
  EXPECT_TRUE(with_telemetry.telemetry.rounds);
  EXPECT_EQ(with_telemetry.telemetry.rounds_sample_every, 2u);
  EXPECT_EQ(with_telemetry.telemetry.rounds_trials, 2u);
  EXPECT_FALSE(without.telemetry.any());
  // The defining invariant: telemetry is out of band, so the fingerprint
  // (and with it journal compatibility) is identical either way.
  EXPECT_EQ(with_telemetry.fingerprint, without.fingerprint);
}

TEST(CampaignTelemetry, UnknownTelemetryKeyRejected) {
  using namespace scenario;
  std::string spec(kTelemetrySpec);
  spec += "bogus = 1\n";
  try {
    plan_campaign(ScenarioSpec::parse_string(spec));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignTelemetry, ResultSinksByteIdenticalAcrossTelemetryAndThreads) {
  using namespace scenario;
  const std::string dir = test_temp_dir();
  const auto clean = [&dir](const std::string& stem) {
    for (const char* ext : {".jsonl", ".csv", ".journal", ".status.json",
                            ".trace.json", ".rounds.jsonl"}) {
      std::remove((dir + stem + ext).c_str());
    }
    return dir + stem;
  };

  // Baseline: telemetry off, serial.
  const CampaignPlan plain =
      plan_campaign(ScenarioSpec::parse_string(spec_without_telemetry()));
  CampaignOptions options;
  options.output = clean("obs_plain");
  run_campaign(plain, options);
  const std::string baseline_jsonl = read_file(options.output + ".jsonl");
  const std::string baseline_csv = read_file(options.output + ".csv");
  ASSERT_FALSE(baseline_jsonl.empty());

  // Telemetry on, at 0, 2, and 8 threads: result sinks must not move by
  // a single byte, and every telemetry artifact must appear and parse.
  const CampaignPlan traced =
      plan_campaign(ScenarioSpec::parse_string(kTelemetrySpec));
  const std::size_t thread_counts[] = {0, 2, 8};
  for (const std::size_t threads : thread_counts) {
    CampaignOptions traced_options;
    traced_options.threads = threads;
    traced_options.output =
        clean("obs_traced_t" + std::to_string(threads));
    std::ostringstream heartbeat;
    traced_options.telemetry_heartbeat = &heartbeat;
    run_campaign(traced, traced_options);

    EXPECT_EQ(read_file(traced_options.output + ".jsonl"), baseline_jsonl);
    EXPECT_EQ(read_file(traced_options.output + ".csv"), baseline_csv);

    const std::string status =
        read_file(traced_options.output + ".status.json");
    EXPECT_TRUE(json_valid(status)) << status;
    EXPECT_NE(status.find("\"jobs_done\":4"), std::string::npos) << status;

    const std::string trace = read_file(traced_options.output + ".trace.json");
    EXPECT_TRUE(json_valid(trace));
    EXPECT_NE(trace.find("\"sink_flush\""), std::string::npos);
    EXPECT_NE(trace.find("\"job\""), std::string::npos);

    // 4 jobs x rounds_trials=2 recorded trials, each with >= 2 samples.
    std::ifstream rounds(traced_options.output + ".rounds.jsonl");
    std::string line;
    std::size_t lines = 0;
    while (std::getline(rounds, line)) {
      EXPECT_TRUE(json_valid(line)) << line;
      ++lines;
    }
    EXPECT_GE(lines, 16u);
  }
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// Distributed campaign fabric tests: wire codec round-trips and underflow
// safety, loopback framing, the lease table's requeue semantics, the
// journal's idempotent merge (duplicates, out-of-order, torn trailing
// frames), and — the tentpole contract — a coordinator + N workers run
// whose JSONL/CSV output is byte-identical to a single-process run of the
// same spec, including when a worker deserts mid-campaign.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/lease.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "util/build_info.hpp"
#include "test_support.hpp"

namespace cobra::dist {
namespace {

using scenario::CampaignOptions;
using scenario::CampaignPlan;
using scenario::JobResult;
using scenario::Journal;
using scenario::ScenarioSpec;
using scenario::SpecError;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr const char* kDistSpec = R"(
[campaign]
name = dist_tiny
trials = 6
base_seed = 424242
seeds = 0..1

[graph]
family = cycle
n = 24,48

[process]
name = cobra
k = 2
)";

JobResult sample_result(double rounds) {
  JobResult result;
  result.trials = 3;
  const double values[] = {rounds};
  result.rounds = summarize(values);
  result.transmissions = summarize(values);
  result.graph_name = "cycle_test";
  return result;
}

// ---- wire codec ----

TEST(DistWire, CodecRoundTrips) {
  HelloMsg hello;
  hello.journal_format = scenario::kJournalFormatVersion;
  hello.build_info = "git=abc compiler=test flags=none";
  const HelloMsg hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.protocol, kProtocolVersion);
  EXPECT_EQ(hello2.journal_format, hello.journal_format);
  EXPECT_EQ(hello2.build_info, hello.build_info);

  WelcomeMsg welcome;
  welcome.fingerprint = 0xdeadbeefcafe1234ull;
  welcome.worker_id = 7;
  welcome.spec_text = "[campaign]\nname = x\n";
  const WelcomeMsg welcome2 = decode_welcome(encode_welcome(welcome));
  EXPECT_EQ(welcome2.fingerprint, welcome.fingerprint);
  EXPECT_EQ(welcome2.worker_id, welcome.worker_id);
  EXPECT_EQ(welcome2.spec_text, welcome.spec_text);

  LeaseGrantMsg grant;
  grant.shard = 3;
  grant.jobs = {9, 10, 11};
  const LeaseGrantMsg grant2 = decode_lease_grant(encode_lease_grant(grant));
  EXPECT_EQ(grant2.shard, 3u);
  EXPECT_EQ(grant2.jobs, grant.jobs);

  JobResultMsg result;
  result.shard = 1;
  result.job = 5;
  result.payload = scenario::serialize_job_result(sample_result(12.5));
  const JobResultMsg result2 = decode_job_result(encode_job_result(result));
  EXPECT_EQ(result2.shard, 1u);
  EXPECT_EQ(result2.job, 5u);
  EXPECT_EQ(result2.payload, result.payload);
}

TEST(DistWire, ReaderUnderflowThrows) {
  WireWriter writer;
  writer.u32(7);
  const std::string bytes = writer.data();
  WireReader reader(bytes);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.u64(), ProtocolError);
  WireReader truncated(std::string_view(bytes).substr(0, 2));
  EXPECT_THROW(truncated.u32(), ProtocolError);
  // A string whose length prefix exceeds the remaining payload must not
  // read past the buffer.
  WireWriter lying;
  lying.u32(1000);
  WireReader liar(lying.data());
  EXPECT_THROW(liar.str(), ProtocolError);
}

TEST(DistWire, LoopbackFramesAndCleanEof) {
  Listener listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.valid());
  ASSERT_GT(listener.port(), 0);

  std::thread peer([&listener] {
    Socket server = listener.accept_connection();
    ASSERT_TRUE(server.valid());
    Frame frame;
    ASSERT_TRUE(server.recv_frame(frame));
    EXPECT_EQ(frame.type, FrameType::kHello);
    server.send_frame(FrameType::kWelcome, "hi " + frame.payload);
    // Close without another frame: the client sees clean EOF, not a throw.
  });

  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  client.send_frame(FrameType::kHello, "worker");
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kWelcome);
  EXPECT_EQ(frame.payload, "hi worker");
  EXPECT_FALSE(client.recv_frame(frame));  // peer closed at a boundary
  peer.join();
}

// ---- lease table ----

TEST(DistLease, AcquireCompleteAndShutdownSignal) {
  LeaseTable table({{0, 1}, {2, 3}}, std::chrono::milliseconds(60000));
  const auto a = table.acquire(1);
  const auto b = table.acquire(2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(table.jobs(*a).size(), 2u);
  table.complete(*a);
  table.complete(*b);
  EXPECT_TRUE(table.all_done());
  // All shards done: further acquires return nullopt immediately.
  EXPECT_FALSE(table.acquire(3).has_value());
}

TEST(DistLease, DisconnectRequeuesOnlyTheDeadWorkersShards) {
  LeaseTable table({{0}, {1}, {2}}, std::chrono::milliseconds(60000));
  const auto a = table.acquire(1);
  const auto b = table.acquire(2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(table.release_worker(1), 1u);  // worker 1 died
  const LeaseTable::Stats stats = table.stats();
  EXPECT_EQ(stats.pending, 2u);  // a's shard back, plus the never-leased one
  EXPECT_EQ(stats.leased, 1u);   // b still held by worker 2
  EXPECT_EQ(stats.requeues, 1u);
  // The requeued shard is acquirable again (by anyone).
  const auto again = table.acquire(2);
  ASSERT_TRUE(again.has_value());
}

TEST(DistLease, ExpiredLeasesAreSweptRenewedOnesAreNot) {
  LeaseTable table({{0}, {1}}, std::chrono::milliseconds(1));
  const auto a = table.acquire(1);
  const auto b = table.acquire(2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  table.renew(*b, 2);  // worker 2 is alive; its deadline moves out
  // (the 1ms timeout means b may expire again before the sweep below —
  // renew with a fat margin by re-renewing right before sweeping)
  table.renew(*b, 2);
  const std::size_t swept = table.requeue_expired();
  EXPECT_GE(swept, 1u);  // a expired for sure
  EXPECT_EQ(table.stats().requeues, swept);
}

TEST(DistLease, CompleteIsTerminalEvenAfterRequeue) {
  LeaseTable table({{0}}, std::chrono::milliseconds(60000));
  const auto a = table.acquire(1);
  ASSERT_TRUE(a.has_value());
  table.release_worker(1);        // requeued...
  const auto b = table.acquire(2);  // ...re-leased to the replacement
  ASSERT_TRUE(b.has_value());
  table.complete(*b);
  table.complete(*a);  // straggler completing again: no double count
  EXPECT_TRUE(table.all_done());
}

TEST(DistLease, AbortWakesBlockedAcquire) {
  LeaseTable table({{0}}, std::chrono::milliseconds(60000));
  ASSERT_TRUE(table.acquire(1).has_value());  // only shard now leased
  std::thread blocked([&table] {
    EXPECT_FALSE(table.acquire(2).has_value());  // woken by abort
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  table.abort();
  blocked.join();
  EXPECT_TRUE(table.aborted());
}

// ---- journal merge ----

TEST(DistJournal, MergeDropsDuplicatesAndSurvivesReload) {
  const std::string path = test_temp_dir() + "dist_merge.journal";
  std::remove(path.c_str());
  const CampaignPlan plan =
      scenario::plan_campaign(ScenarioSpec::parse_string(kDistSpec));
  {
    Journal journal(path, plan, /*resume=*/true);
    // Out-of-order arrival (shards complete in any order) is fine.
    EXPECT_TRUE(journal.merge(2, sample_result(20.0)));
    EXPECT_TRUE(journal.merge(0, sample_result(10.0)));
    EXPECT_FALSE(journal.merge(2, sample_result(99.0)));  // duplicate
    EXPECT_TRUE(journal.contains(0));
    EXPECT_FALSE(journal.contains(1));
  }
  Journal reloaded(path, plan, /*resume=*/true);
  ASSERT_EQ(reloaded.restored().size(), 2u);
  // First frame won: the duplicate's rounds value never landed.
  EXPECT_DOUBLE_EQ(reloaded.restored().at(2).rounds.mean, 20.0);
  // Restored frames still dedupe new merges.
  EXPECT_FALSE(reloaded.merge(0, sample_result(11.0)));
  EXPECT_TRUE(reloaded.merge(1, sample_result(15.0)));
  std::remove(path.c_str());
}

TEST(DistJournal, TornTrailingFrameIsDroppedAndRemergeable) {
  const std::string path = test_temp_dir() + "dist_torn.journal";
  std::remove(path.c_str());
  const CampaignPlan plan =
      scenario::plan_campaign(ScenarioSpec::parse_string(kDistSpec));
  {
    Journal journal(path, plan, /*resume=*/true);
    EXPECT_TRUE(journal.merge(0, sample_result(10.0)));
    EXPECT_TRUE(journal.merge(1, sample_result(11.0)));
  }
  // Tear the trailing frame mid-payload — a worker kill between write and
  // fsync completion can leave exactly this.
  std::string bytes = read_file(path);
  bytes.resize(bytes.size() - 7);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Journal recovered(path, plan, /*resume=*/true);
  EXPECT_EQ(recovered.restored().size(), 1u);  // job 1's frame was torn
  EXPECT_TRUE(recovered.contains(0));
  EXPECT_TRUE(recovered.merge(1, sample_result(11.0)));  // re-runnable
  std::remove(path.c_str());
}

// ---- spec shipping ----

TEST(DistSpec, RenderParseRoundTripKeepsFingerprint) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);
  const std::string rendered = spec.render();
  const ScenarioSpec reparsed = ScenarioSpec::parse_string(rendered);
  const CampaignPlan replanned = scenario::plan_campaign(reparsed);
  EXPECT_EQ(plan.fingerprint, replanned.fingerprint);
  EXPECT_EQ(plan.jobs.size(), replanned.jobs.size());
  // render . parse . render is the identity — what makes the shipped text
  // a faithful wire form of the campaign.
  EXPECT_EQ(reparsed.render(), rendered);
}

// ---- coordinator + worker end-to-end (loopback) ----

struct ServeResult {
  std::optional<CoordinatorResult> result;
  std::string error;
};

ServeResult serve_in_thread(Coordinator& coordinator) {
  ServeResult out;
  try {
    out.result = coordinator.serve();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Holds every worker at its "joined" log line — written after the
/// handshake, before the first lease request — until all of them have
/// written it. No worker can then lease before every handshake is done,
/// so the coordinator cannot finish the campaign and close its listener
/// before the last worker connects. A worker that waits past the timeout
/// goes on, and held() fails the case instead of letting it hang.
class JoinBarrier {
 public:
  explicit JoinBarrier(std::size_t workers) : waiting_(workers) {}

  void arrive() {
    std::unique_lock lock(mutex_);
    if (--waiting_ == 0) {
      released_.notify_all();
    } else if (!released_.wait_for(lock, std::chrono::seconds(60),
                                   [this] { return waiting_ == 0; })) {
      timed_out_ = true;
    }
  }

  /// True once every worker has joined and none went on alone.
  bool held() const {
    std::lock_guard lock(mutex_);
    return waiting_ == 0 && !timed_out_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable released_;
  std::size_t waiting_;
  bool timed_out_ = false;
};

/// One worker's WorkerOptions::log buffer: each complete line that
/// announces the join waits at the barrier.
class JoinGateBuffer : public std::streambuf {
 public:
  explicit JoinGateBuffer(JoinBarrier& barrier) : barrier_(barrier) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    if (ch != '\n') {
      line_.push_back(traits_type::to_char_type(ch));
      return ch;
    }
    if (line_.find("] joined ") != std::string::npos) barrier_.arrive();
    line_.clear();
    return ch;
  }

 private:
  JoinBarrier& barrier_;
  std::string line_;
};

TEST(DistEndToEnd, TwoWorkersProduceByteIdenticalSinks) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);
  const std::string dir = test_temp_dir();
  const std::string ref_stem = dir + "dist_e2e_ref";
  const std::string run_stem = dir + "dist_e2e_run";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((ref_stem + ext).c_str());
    std::remove((run_stem + ext).c_str());
  }

  CampaignOptions ref_options;
  ref_options.output = ref_stem;
  const auto ref = scenario::run_campaign(plan, ref_options);
  ASSERT_TRUE(ref.complete);

  CoordinatorOptions options;
  options.output = run_stem;
  options.shard_size = 1;  // maximal interleaving across the two workers
  Coordinator coordinator(plan, spec.render(), options);
  ASSERT_GT(coordinator.port(), 0);

  JoinBarrier joined(2);
  std::vector<std::thread> workers;
  std::vector<std::string> worker_errors(2);
  for (std::size_t i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      JoinGateBuffer buffer(joined);
      std::ostream log(&buffer);
      WorkerOptions worker_options;
      worker_options.port = coordinator.port();
      worker_options.log = &log;
      try {
        (void)run_worker(worker_options);
      } catch (const std::exception& e) {
        worker_errors[i] = e.what();
      }
    });
  }
  const ServeResult served = serve_in_thread(coordinator);
  for (auto& w : workers) w.join();

  EXPECT_TRUE(joined.held()) << "a worker leased before both had joined";
  ASSERT_TRUE(served.error.empty()) << served.error;
  ASSERT_TRUE(served.result.has_value());
  EXPECT_TRUE(served.result->complete);
  EXPECT_EQ(served.result->merged, plan.jobs.size());
  EXPECT_EQ(served.result->workers_served, 2u);
  EXPECT_TRUE(worker_errors[0].empty()) << worker_errors[0];
  EXPECT_TRUE(worker_errors[1].empty()) << worker_errors[1];

  EXPECT_EQ(read_file(run_stem + ".jsonl"), read_file(ref_stem + ".jsonl"));
  EXPECT_EQ(read_file(run_stem + ".csv"), read_file(ref_stem + ".csv"));
}

TEST(DistEndToEnd, DesertingWorkerIsRequeuedAndCampaignCompletes) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);

  CoordinatorOptions options;  // no output stem: in-memory merge
  options.shard_size = 1;
  Coordinator coordinator(plan, spec.render(), options);

  ServeResult served;
  std::thread serve_thread(
      [&] { served = serve_in_thread(coordinator); });

  // A deserter: valid handshake, takes one lease, then drops dead without
  // returning a single result.
  {
    Socket deserter = Socket::connect_to("127.0.0.1", coordinator.port());
    HelloMsg hello;
    hello.journal_format = scenario::kJournalFormatVersion;
    hello.build_info = "deserter";
    deserter.send_frame(FrameType::kHello, encode_hello(hello));
    Frame frame;
    ASSERT_TRUE(deserter.recv_frame(frame));
    ASSERT_EQ(frame.type, FrameType::kWelcome);
    deserter.send_frame(FrameType::kLeaseRequest, "");
    ASSERT_TRUE(deserter.recv_frame(frame));
    ASSERT_EQ(frame.type, FrameType::kLeaseGrant);
  }  // socket closes here — kill -9 as far as the coordinator can tell

  // A diligent worker finishes the whole campaign, deserted shard included.
  WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  const WorkerResult worker = run_worker(worker_options);
  serve_thread.join();

  ASSERT_TRUE(served.error.empty()) << served.error;
  ASSERT_TRUE(served.result.has_value());
  EXPECT_TRUE(served.result->complete);
  EXPECT_EQ(served.result->merged, plan.jobs.size());
  EXPECT_GE(served.result->requeues, 1u);
  EXPECT_EQ(worker.jobs_executed, plan.jobs.size());
}

TEST(DistEndToEnd, DuplicateResultFramesAreDroppedNotDoubleCounted) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);

  CoordinatorOptions options;
  options.shard_size = plan.jobs.size();  // one shard holds everything
  Coordinator coordinator(plan, spec.render(), options);

  ServeResult served;
  std::thread serve_thread(
      [&] { served = serve_in_thread(coordinator); });

  Socket client = Socket::connect_to("127.0.0.1", coordinator.port());
  HelloMsg hello;
  hello.journal_format = scenario::kJournalFormatVersion;
  hello.build_info = "duper";
  client.send_frame(FrameType::kHello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kWelcome);
  client.send_frame(FrameType::kLeaseRequest, "");
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kLeaseGrant);
  const LeaseGrantMsg grant = decode_lease_grant(frame.payload);
  ASSERT_EQ(grant.jobs.size(), plan.jobs.size());

  // Stream every job's result — job 0's frame three times (a straggler
  // racing its replacement after a requeue sends exactly such copies).
  for (const std::uint64_t job : grant.jobs) {
    JobResultMsg msg;
    msg.shard = grant.shard;
    msg.job = job;
    msg.payload = scenario::serialize_job_result(
        sample_result(10.0 + static_cast<double>(job)));
    const std::string encoded = encode_job_result(msg);
    client.send_frame(FrameType::kJobResult, encoded);
    if (job == 0) {
      client.send_frame(FrameType::kJobResult, encoded);
      client.send_frame(FrameType::kJobResult, encoded);
    }
  }
  WireWriter done;
  done.u64(grant.shard);
  client.send_frame(FrameType::kShardDone, done.take());
  client.send_frame(FrameType::kLeaseRequest, "");
  ASSERT_TRUE(client.recv_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kShutdown);
  client.close();
  serve_thread.join();

  ASSERT_TRUE(served.error.empty()) << served.error;
  ASSERT_TRUE(served.result.has_value());
  EXPECT_TRUE(served.result->complete);
  EXPECT_EQ(served.result->merged, plan.jobs.size());
  EXPECT_EQ(served.result->duplicates, 2u);
}

TEST(DistHandshake, ProtocolMismatchIsRejected) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);
  CoordinatorOptions options;
  Coordinator coordinator(plan, spec.render(), options);
  ServeResult served;
  std::thread serve_thread(
      [&] { served = serve_in_thread(coordinator); });

  {
    Socket stale = Socket::connect_to("127.0.0.1", coordinator.port());
    HelloMsg hello;
    hello.protocol = kProtocolVersion + 1;  // future/stale binary
    hello.journal_format = scenario::kJournalFormatVersion;
    hello.build_info = "stale";
    stale.send_frame(FrameType::kHello, encode_hello(hello));
    Frame frame;
    ASSERT_TRUE(stale.recv_frame(frame));
    EXPECT_EQ(frame.type, FrameType::kReject);
    EXPECT_NE(frame.payload.find("version mismatch"), std::string::npos);
  }

  // The coordinator survives the rejection; a good worker finishes.
  WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  (void)run_worker(worker_options);
  serve_thread.join();
  ASSERT_TRUE(served.result.has_value());
  EXPECT_TRUE(served.result->complete);
  // Rejected connections never complete a handshake.
  EXPECT_EQ(served.result->workers_served, 1u);
}

TEST(DistHandshake, WorkerRefusesFingerprintMismatch) {
  // A fake "coordinator" whose WELCOME carries a wrong fingerprint for the
  // shipped spec — the worker must re-plan, notice, and refuse.
  Listener listener = Listener::bind_local(0);
  std::string worker_error_frame;
  std::thread fake([&] {
    Socket conn = listener.accept_connection();
    ASSERT_TRUE(conn.valid());
    Frame frame;
    ASSERT_TRUE(conn.recv_frame(frame));
    ASSERT_EQ(frame.type, FrameType::kHello);
    WelcomeMsg welcome;
    welcome.journal_format = scenario::kJournalFormatVersion;
    welcome.build_info = "fake";
    welcome.fingerprint = 0x1234;  // not the plan's fingerprint
    welcome.worker_id = 1;
    welcome.spec_text = kDistSpec;
    conn.send_frame(FrameType::kWelcome, encode_welcome(welcome));
    if (conn.recv_frame(frame) && frame.type == FrameType::kError) {
      worker_error_frame = frame.payload;
    }
  });

  WorkerOptions options;
  options.port = listener.port();
  try {
    (void)run_worker(options);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos);
  }
  fake.join();
  // The worker told the coordinator why before bailing.
  EXPECT_NE(worker_error_frame.find("fingerprint mismatch"),
            std::string::npos);
}

TEST(DistEndToEnd, ResumedCampaignServesOnlyPendingJobs) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(kDistSpec);
  const CampaignPlan plan = scenario::plan_campaign(spec);
  const std::string stem = test_temp_dir() + "dist_resume";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }

  // Seed the journal with half the campaign, as an interrupted local run
  // would leave it.
  CampaignOptions partial;
  partial.output = stem;
  partial.max_jobs = 2;
  const auto first = scenario::run_campaign(plan, partial);
  ASSERT_FALSE(first.complete);

  CoordinatorOptions options;
  options.output = stem;
  options.shard_size = 1;
  Coordinator coordinator(plan, spec.render(), options);
  WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  std::thread worker([&] { (void)run_worker(worker_options); });
  const ServeResult served = serve_in_thread(coordinator);
  worker.join();

  ASSERT_TRUE(served.error.empty()) << served.error;
  ASSERT_TRUE(served.result.has_value());
  EXPECT_TRUE(served.result->complete);
  EXPECT_EQ(served.result->resumed, 2u);
  EXPECT_EQ(served.result->merged, plan.jobs.size() - 2);

  // The stitched-together campaign still renders byte-identically to an
  // uninterrupted local one.
  const std::string ref_stem = test_temp_dir() + "dist_resume_ref";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((ref_stem + ext).c_str());
  }
  CampaignOptions ref_options;
  ref_options.output = ref_stem;
  ASSERT_TRUE(scenario::run_campaign(plan, ref_options).complete);
  EXPECT_EQ(read_file(stem + ".jsonl"), read_file(ref_stem + ".jsonl"));
  EXPECT_EQ(read_file(stem + ".csv"), read_file(ref_stem + ".csv"));
}

}  // namespace
}  // namespace cobra::dist

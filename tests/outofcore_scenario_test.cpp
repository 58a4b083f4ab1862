// SPDX-License-Identifier: MIT
//
// Out-of-core scenario and fabric tests: the [graph] family=file mmap
// knob (borrowed vs owned storage through build_graph and the campaign),
// exact .cgr memory estimates with the mapped/resident split, the graph
// cache's storage accounting, and the coordinator's plan-scoped graph
// byte-range server.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "rand/rng.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

using scenario::CampaignPlan;
using scenario::GraphCache;
using scenario::JobSpec;
using scenario::ScenarioSpec;
using scenario::SpecError;

std::string temp_cgr(const std::string& tag) {
  const std::string path = test_temp_dir() + "ooc_scn_" + tag + ".cgr";
  Rng rng(99);
  write_cgr(gen::erdos_renyi(400, 0.02, rng), path);
  return path;
}

std::string file_spec(const std::string& path, int mmap,
                      const std::string& name, const std::string& output) {
  return "[campaign]\nname = " + name +
         "\ntrials = 3\nbase_seed = 5\noutput = " + output +
         "\n[graph]\nfamily = file\nfile = " + path +
         "\nmmap = " + std::to_string(mmap) + "\n[process]\nname = cobra\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ScenarioMmap, BuildGraphHonorsTheMmapParam) {
  const std::string path = temp_cgr("build");
  const auto plan_for = [&](int mmap) {
    return scenario::plan_campaign(ScenarioSpec::parse_string(
        file_spec(path, mmap, "mm", test_temp_dir() + "ooc_mm")));
  };
  const CampaignPlan owned_plan = plan_for(0);
  const CampaignPlan mapped_plan = plan_for(1);
  const Graph owned =
      scenario::build_campaign_graph(owned_plan, owned_plan.jobs[0]);
  const Graph mapped =
      scenario::build_campaign_graph(mapped_plan, mapped_plan.jobs[0]);

  EXPECT_FALSE(owned.is_mapped());
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_GT(mapped.mapped_bytes(), 0u);
  ASSERT_EQ(owned.num_vertices(), mapped.num_vertices());
  ASSERT_EQ(owned.num_edges(), mapped.num_edges());
  for (Vertex v = 0; v < owned.num_vertices(); ++v) {
    const auto a = owned.neighbors(v);
    const auto b = mapped.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ScenarioMmap, MmapRequiresACgrFile) {
  const std::string path = test_temp_dir() + "ooc_scn_edges.el";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "n 4\n0 1\n1 2\n2 3\n";
  }
  scenario::ParamMap params;
  params.emplace_back("family", "file");
  params.emplace_back("file", path);
  params.emplace_back("mmap", "1");
  Rng rng(1);
  EXPECT_THROW((void)scenario::build_graph(params, rng), SpecError);
}

TEST(ScenarioMmap, EstimateIsExactForCgrAndSplitsMappedFromResident) {
  const std::string path = temp_cgr("estimate");
  const Graph g = read_cgr(path);

  scenario::ParamMap params;
  params.emplace_back("family", "file");
  params.emplace_back("file", path);
  params.emplace_back("mmap", "1");
  const auto mapped = scenario::estimate_graph_memory(params);
  ASSERT_TRUE(mapped.known);
  EXPECT_EQ(mapped.n, g.num_vertices());
  EXPECT_EQ(mapped.endpoints, 2 * g.num_edges());
  EXPECT_EQ(mapped.csr_bytes, g.memory_bytes());
  EXPECT_EQ(mapped.mapped_bytes, g.memory_bytes());
  EXPECT_EQ(mapped.resident_bytes(), 0u);

  params.pop_back();
  params.emplace_back("mmap", "0");
  const auto owned = scenario::estimate_graph_memory(params);
  ASSERT_TRUE(owned.known);
  EXPECT_EQ(owned.mapped_bytes, 0u);
  EXPECT_EQ(owned.resident_bytes(), g.memory_bytes());
}

TEST(ScenarioMmap, CampaignSinksMatchOwnedRunModuloTheMmapParam) {
  const std::string path = temp_cgr("sinks");
  const std::string owned_stem = test_temp_dir() + "ooc_scn_owned";
  const std::string mapped_stem = test_temp_dir() + "ooc_scn_mapped";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((owned_stem + ext).c_str());
    std::remove((mapped_stem + ext).c_str());
  }
  const auto run = [&](int mmap, const std::string& stem) {
    const CampaignPlan plan = scenario::plan_campaign(
        ScenarioSpec::parse_string(file_spec(path, mmap, "sinks", stem)));
    scenario::CampaignOptions options;
    options.output = stem;
    const auto result = scenario::run_campaign(plan, options);
    EXPECT_TRUE(result.complete);
  };
  run(0, owned_stem);
  run(1, mapped_stem);

  std::string mapped_jsonl = read_file(mapped_stem + ".jsonl");
  for (std::size_t at = mapped_jsonl.find("\"mmap\":\"1\"");
       at != std::string::npos; at = mapped_jsonl.find("\"mmap\":\"1\"", at)) {
    mapped_jsonl.replace(at, 10, "\"mmap\":\"0\"");
  }
  EXPECT_EQ(mapped_jsonl, read_file(owned_stem + ".jsonl"));
}

TEST(GraphCacheUsage, SplitsResidentFromMappedAndEmptiesOnRelease) {
  const std::string path = temp_cgr("cache");
  const CampaignPlan plan = scenario::plan_campaign(ScenarioSpec::parse_string(
      file_spec(path, 1, "cache", test_temp_dir() + "ooc_cache")));
  GraphCache cache([&plan](const JobSpec& job) {
    return scenario::build_campaign_graph(plan, job);
  });
  const JobSpec& job = plan.jobs[0];
  cache.expect(job);
  const auto acquired = cache.acquire(job);

  const GraphCache::Usage held = cache.usage();
  EXPECT_EQ(held.graphs, 1u);
  EXPECT_EQ(held.resident_bytes, 0u);
  EXPECT_EQ(held.mapped_bytes, acquired.graph->mapped_bytes());
  EXPECT_GT(held.mapped_bytes, 0u);

  cache.release(job);
  const GraphCache::Usage empty = cache.usage();
  EXPECT_EQ(empty.graphs, 0u);
  EXPECT_EQ(empty.mapped_bytes, 0u);
}

// ---- coordinator graph byte-range server ----

dist::Frame must_recv(dist::Socket& socket) {
  dist::Frame frame;
  EXPECT_TRUE(socket.recv_frame(frame));
  return frame;
}

TEST(DistGraphShipping, CoordinatorServesPlanGraphsInBoundedRanges) {
  const std::string path = temp_cgr("ship");
  const std::string expected = read_file(path);
  const std::string stem = test_temp_dir() + "ooc_ship";
  // A journal left by a previous run would resume as already-complete and
  // serve() would return before the client gets a word in.
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  const ScenarioSpec spec =
      ScenarioSpec::parse_string(file_spec(path, 1, "ship", stem));
  const CampaignPlan plan = scenario::plan_campaign(spec);

  dist::CoordinatorOptions options;
  options.shard_size = plan.jobs.size();
  dist::Coordinator coordinator(plan, spec.render(), options);
  std::optional<dist::CoordinatorResult> served;
  std::string serve_error;
  std::thread serve_thread([&] {
    try {
      served = coordinator.serve();
    } catch (const std::exception& e) {
      serve_error = e.what();
    }
  });

  dist::Socket client =
      dist::Socket::connect_to("127.0.0.1", coordinator.port());
  dist::HelloMsg hello;
  hello.journal_format = scenario::kJournalFormatVersion;
  hello.build_info = "shipping-test";
  client.send_frame(dist::FrameType::kHello, dist::encode_hello(hello));
  ASSERT_EQ(must_recv(client).type, dist::FrameType::kWelcome);

  // Fetch the plan's graph in deliberately tiny ranges: every chunk must
  // come back capped at max_bytes, and the concatenation must equal the
  // file byte for byte.
  std::string fetched;
  std::uint64_t file_size = 0;
  do {
    dist::GraphRequestMsg request;
    request.path = path;
    request.offset = fetched.size();
    request.max_bytes = 1000;
    client.send_frame(dist::FrameType::kGraphRequest,
                      dist::encode_graph_request(request));
    const dist::Frame frame = must_recv(client);
    ASSERT_EQ(frame.type, dist::FrameType::kGraphData);
    const dist::GraphDataMsg data = dist::decode_graph_data(frame.payload);
    file_size = data.file_size;
    ASSERT_LE(data.bytes.size(), 1000u);
    fetched += data.bytes;
  } while (fetched.size() < file_size);
  EXPECT_EQ(fetched, expected);

  // Finish the campaign so serve() returns: fake results are fine, the
  // coordinator merges payloads without rebuilding graphs.
  client.send_frame(dist::FrameType::kLeaseRequest, "");
  dist::Frame frame = must_recv(client);
  ASSERT_EQ(frame.type, dist::FrameType::kLeaseGrant);
  const dist::LeaseGrantMsg grant = dist::decode_lease_grant(frame.payload);
  for (const std::uint64_t job : grant.jobs) {
    scenario::JobResult result;
    result.trials = 3;
    const double values[] = {12.0};
    result.rounds = summarize(values);
    result.transmissions = summarize(values);
    result.graph_name = "ship_test";
    dist::JobResultMsg msg;
    msg.shard = grant.shard;
    msg.job = job;
    msg.payload = scenario::serialize_job_result(result);
    client.send_frame(dist::FrameType::kJobResult,
                      dist::encode_job_result(msg));
  }
  dist::WireWriter done;
  done.u64(grant.shard);
  client.send_frame(dist::FrameType::kShardDone, done.take());
  client.send_frame(dist::FrameType::kLeaseRequest, "");
  EXPECT_EQ(must_recv(client).type, dist::FrameType::kShutdown);
  client.close();
  serve_thread.join();
  ASSERT_TRUE(serve_error.empty()) << serve_error;
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(served->complete);
}

TEST(DistGraphShipping, RequestsOutsideThePlanAreRefused) {
  const std::string path = temp_cgr("allowlist");
  const std::string stem = test_temp_dir() + "ooc_allow";
  for (const char* ext : {".journal", ".jsonl", ".csv"}) {
    std::remove((stem + ext).c_str());
  }
  const ScenarioSpec spec =
      ScenarioSpec::parse_string(file_spec(path, 1, "allow", stem));
  const CampaignPlan plan = scenario::plan_campaign(spec);

  dist::Coordinator coordinator(plan, spec.render(), {});
  std::thread serve_thread([&] {
    try {
      (void)coordinator.serve();
    } catch (const std::exception&) {
      // stop() below leaves the campaign incomplete; either return path
      // is fine, the assertion under test is the kError frame.
    }
  });

  dist::Socket client =
      dist::Socket::connect_to("127.0.0.1", coordinator.port());
  dist::HelloMsg hello;
  hello.journal_format = scenario::kJournalFormatVersion;
  hello.build_info = "allowlist-test";
  client.send_frame(dist::FrameType::kHello, dist::encode_hello(hello));
  ASSERT_EQ(must_recv(client).type, dist::FrameType::kWelcome);

  dist::GraphRequestMsg request;
  request.path = "/etc/hostname";  // exists, but the plan never names it
  request.offset = 0;
  request.max_bytes = 64;
  client.send_frame(dist::FrameType::kGraphRequest,
                    dist::encode_graph_request(request));
  EXPECT_EQ(must_recv(client).type, dist::FrameType::kError);
  client.close();
  coordinator.stop();
  serve_thread.join();
}

}  // namespace
}  // namespace cobra

// SPDX-License-Identifier: MIT
//
// campaign_worker — worker agent of the distributed campaign fabric.
// Connects to a `scenario_runner --serve` coordinator, receives the
// campaign spec over the handshake (no local spec file needed), and runs
// leased job shards until the coordinator says the campaign is complete.
//
//   scenario_runner spec.scenario --serve 0 --port-file port.txt &
//   campaign_worker --connect 127.0.0.1:$(cat port.txt)
//
// Exit status: 0 after a clean SHUTDOWN, 1 on connection/handshake/job
// errors. Killing a worker at any point is safe — the coordinator requeues
// its leased shards and the journal merge drops any duplicate results.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "scenario/sink.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/parse_number.hpp"

int main(int argc, char** argv) {
  using namespace cobra;

  Flags flags(argc, argv);
  const bool help = flags.help_requested();
  const bool version = flags.has("version");
  const bool quiet = flags.has("quiet");
  const std::string connect = flags.get("connect", "");
  const std::int64_t threads = flags.get_int("threads", 0);

  if (version) {
    std::printf("campaign_worker %s\n", build_info_string().c_str());
    std::printf("dist protocol v%u, journal format v%u\n",
                dist::kProtocolVersion, scenario::kJournalFormatVersion);
    return 0;
  }
  if (help) {
    std::printf(
        "usage: campaign_worker --connect HOST:PORT [flags]\n\n"
        "Joins a `scenario_runner --serve` coordinator as a worker agent:\n"
        "the campaign spec arrives over the handshake, leased job shards\n"
        "run through the standard campaign job path, and results stream\n"
        "back for idempotent journal merge. Safe to kill at any point.\n\n"
        "flags:\n");
    flags.print_help(std::cout);
    return 0;
  }
  if (connect.empty()) {
    std::fprintf(stderr,
                 "error: --connect HOST:PORT required (try --help)\n");
    return 1;
  }
  const std::size_t colon = connect.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == connect.size()) {
    std::fprintf(stderr, "error: --connect expects HOST:PORT, got '%s'\n",
                 connect.c_str());
    return 1;
  }
  std::int64_t port = 0;
  if (!parse_integer(connect.substr(colon + 1), port) ||
      port < 1 || port > 65535) {
    std::fprintf(stderr, "error: invalid port in '%s'\n", connect.c_str());
    return 1;
  }

  try {
    dist::WorkerOptions options;
    options.host = connect.substr(0, colon);
    options.port = static_cast<std::uint16_t>(port);
    options.threads = threads > 0 ? static_cast<std::size_t>(threads) : 0;
    if (!quiet) options.log = &std::cout;
    flags.warn_unconsumed(std::cerr);
    const dist::WorkerResult result = dist::run_worker(options);
    std::printf("worker %llu done: %zu shard(s), %zu job(s) executed\n",
                static_cast<unsigned long long>(result.worker_id),
                result.shards_completed, result.jobs_executed);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

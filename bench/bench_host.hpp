// SPDX-License-Identifier: MIT
//
// The "host" object the JSON-emitting benches (micro_engine,
// micro_graphgen) write into their BENCH_*.json, so every committed row
// names the machine and binary that produced it: core count, CPU model
// and build provenance (git hash, compiler, flags).
#pragma once

#include <fstream>
#include <string>
#include <thread>

#include "util/build_info.hpp"

namespace cobra::bench {

/// {"nproc": N, "cpu": "<model name>", "build": "<build_info_string()>"}
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"build\": \"" + build_info_string() +
         "\"}";
}

}  // namespace cobra::bench

// SPDX-License-Identifier: MIT
//
// Single-flight graph instance cache for campaign execution.
//
// Jobs sharing a (canonical graph params, seed axis) key share one
// deterministic instance. The cache is *single-flight*: when several
// worker threads miss on the same key concurrently, exactly one performs
// the build while the rest block on a shared future — previously each
// concurrent miss built the full instance and all but one were thrown
// away, which at n=2^22 wasted seconds of work and transient gigabytes
// per extra worker. A use count registered up front (expect) releases the
// instance as soon as its last job finishes, so large sweeps don't hold
// every instance until the campaign ends.
//
// The cache also records per-key build seconds, which the campaign runner
// surfaces as journal notes (see campaign.cpp) so overnight campaigns can
// be audited for where their wall-clock went.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/graph.hpp"
#include "scenario/campaign.hpp"

namespace cobra::scenario {

class GraphCache {
 public:
  /// `build` constructs the deterministic instance for a missed job; it
  /// runs on whichever worker thread loses the insert race last opened
  /// the key (exactly one call per cached key lifetime).
  explicit GraphCache(std::function<Graph(const JobSpec&)> build);

  /// Cache key: canonical graph params + seed axis (the inputs the
  /// deterministic graph seed is derived from).
  static std::string key_for(const JobSpec& job);

  /// Registers one future acquire for the job's key; release() drops the
  /// instance when the count reaches zero.
  void expect(const JobSpec& job);

  struct Acquired {
    std::shared_ptr<const Graph> graph;
    /// >= 0 only on the call that actually performed the build (its
    /// duration); -1 for cache hits and single-flight waiters.
    double built_seconds = -1.0;
  };

  /// Returns the shared instance for the job's key, building it
  /// single-flight on miss. A failing build propagates its exception to
  /// the builder call and every waiter, and clears the key so a later
  /// acquire may retry.
  Acquired acquire(const JobSpec& job);

  /// Drops one registered use; the last release evicts the instance.
  void release(const JobSpec& job);

  /// Number of builds actually performed — the single-flight regression
  /// tests assert this stays at one per key under contention.
  std::size_t builds() const noexcept {
    return builds_.load(std::memory_order_relaxed);
  }

  /// Storage footprint of the currently cached instances, split by where
  /// the bytes live: `resident` counts owned arrays competing for RAM,
  /// `mapped` counts file-backed views (mmap-loaded .cgr graphs). No
  /// runner reports these; tests/outofcore_scenario_test.cpp reads them to
  /// check that an out-of-core sweep's working set stayed borrowed.
  struct Usage {
    std::uint64_t resident_bytes = 0;
    std::uint64_t mapped_bytes = 0;
    std::size_t graphs = 0;
  };
  Usage usage();

 private:
  using Future = std::shared_future<std::shared_ptr<const Graph>>;

  std::function<Graph(const JobSpec&)> build_;
  std::mutex mutex_;
  std::map<std::string, Future> cache_;
  std::map<std::string, std::size_t> uses_;
  std::atomic<std::size_t> builds_{0};
};

}  // namespace cobra::scenario

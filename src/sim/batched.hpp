// SPDX-License-Identifier: MIT
//
// Batched lockstep trial engine: runs up to B = 64 trials of one
// (graph, process, options) configuration simultaneously over
// structure-of-arrays state. Per-trial frontier/infection membership is
// packed as bit-planes keyed by vertex — one uint64 word per vertex, bit
// l = lane l — so a single ascending pass over the active vertices
// services all B trials, and every adjacency/CSR fetch is amortized
// across the lanes that are active at that vertex. Neighbour draws go
// through rand/lane_rng.hpp: per-lane xoshiro256++ streams advanced in
// bulk (autovectorizable) when every lane draws, scalar per-lane
// otherwise.
//
// Seed-compatibility contract: lane l of a block starting at trial
// `first` replays the exact RNG stream of Rng::for_trial(base_seed,
// first + l) with start starts[(first + l) % starts.size()] — the same
// (seed, trial) addressing the scalar trial loops use — and every
// supported process traverses its per-trial active set in ascending
// vertex order in both engines. Batched per-trial SpreadResults are
// therefore bitwise-identical to the scalar Process path (enforced by
// tests/batched_test.cpp for every supported process).
//
// Campaigns do not run this engine: JobRunner runs every trial on the
// scalar round, which is as fast or faster end to end, and accepts
// `[engine] batch` as a no-op. perfbench's probes, micro_engine and
// micro_process still time it.
//
// Supported processes: cobra, bips, push, pull, push-pull — weighted and
// fractional-branching variants included. Unsupported combinations
// (other processes, any attached fault model, observer-recorded trials)
// fall back to the scalar Process path; make_batched_engine returns
// nullptr and callers keep the scalar loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"

namespace cobra {

/// Lane membership is a uint64 bit-plane word, so a batch is at most 64.
inline constexpr std::size_t kMaxBatch = 64;

class BatchedEngine {
 public:
  virtual ~BatchedEngine() = default;

  BatchedEngine(const BatchedEngine&) = delete;
  BatchedEngine& operator=(const BatchedEngine&) = delete;

  /// Lanes per block (2..kMaxBatch).
  std::size_t batch() const noexcept { return batch_; }

  /// Runs trials [first, first + count) in lockstep; count <= batch().
  /// Lane l draws from Rng::for_trial(base_seed, first + l) and starts at
  /// starts[(first + l) % starts.size()]. results[l] receives a
  /// SpreadResult bitwise-identical to
  ///   process.run(Rng::for_trial(base_seed, first + l), start_l)
  /// on the scalar process this engine was built from. Reuses the
  /// workspace allocated at construction: zero steady-state allocations
  /// per block when curve recording is off (bench/micro_process gates
  /// this).
  virtual void run_block(std::uint64_t base_seed, std::uint64_t first,
                         std::size_t count, std::span<const Vertex> starts,
                         SpreadResult* results) = 0;

  /// Resident workspace bytes (bit-planes, lane state, scratch lists —
  /// excluding the graph itself).
  virtual std::size_t workspace_bytes() const noexcept = 0;

 protected:
  explicit BatchedEngine(std::size_t batch) noexcept : batch_(batch) {}

  std::size_t batch_;
};

/// Builds the batched engine matching `prototype` (same graph, same
/// options — read via the concrete process type). Returns nullptr when no
/// batched variant exists: batch outside [2, kMaxBatch], an unsupported
/// process type, or a prototype with a fault model attached. Callers fall
/// back to the scalar path on nullptr.
std::unique_ptr<BatchedEngine> make_batched_engine(const Process& prototype,
                                                   std::size_t batch);

}  // namespace cobra

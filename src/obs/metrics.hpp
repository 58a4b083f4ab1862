// SPDX-License-Identifier: MIT
//
// Low-overhead campaign metrics: counters and log-bucketed histograms,
// sharded per thread and merged at read time.
//
// Hot-path cost model: a metric update touches exactly one cache-local
// slot in the calling thread's shard — a relaxed load + relaxed store on
// a cell only that thread writes. There is no atomic read-modify-write,
// no locking, and no allocation on the update path (shards are allocated
// once, on a thread's first touch of the registry). Readers (the progress
// reporter, status.json, end-of-run summaries) merge all shards under the
// registry mutex; because merging is a sum over per-thread totals, the
// merged value is a pure function of the updates performed — independent
// of thread count or interleaving (tested in tests/obs_test.cpp).
//
// Lifecycle contract:
//  * Register every metric (counter / histogram) before any
//    worker thread touches the registry; registration after the first
//    shard exists throws std::logic_error.
//  * The registry must outlive every thread that updates it. Campaign
//    code scopes the registry around the pool's parallel_for, which
//    joins before the registry is destroyed.
//
// Telemetry is out of band by construction: nothing in this file touches
// RNG streams or results, and a campaign that never instantiates a
// registry executes byte-identically to a build without one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cobra::obs {

/// Single-writer cell: the owning thread updates with plain relaxed
/// load + store (no RMW — the value is never written by anyone else),
/// concurrent readers take relaxed loads. Torn reads are impossible
/// (64-bit atomics) and stale reads are fine for telemetry.
class RelaxedCell {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Like RelaxedCell for doubles (histogram sums).
class RelaxedCellD {
 public:
  void add(double delta) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  double load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Opaque metric handle; indexes into every shard's slot array.
struct CounterId { std::size_t slot = static_cast<std::size_t>(-1); };
struct HistogramId { std::size_t slot = static_cast<std::size_t>(-1); };

/// Histograms bucket positive values into powers of two of `base`:
/// bucket b covers [base * 2^(b-1), base * 2^b), bucket 0 is [0, base).
/// 64 buckets with the default base of 1 microsecond span sub-us to
/// ~hundreds of millennia — one size fits durations and count-valued
/// observations alike.
inline constexpr std::size_t kHistogramBuckets = 64;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Returns the bucket index for `value` given `base` (see above).
std::size_t histogram_bucket(double value, double base);

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- registration (before any shard exists) ----
  CounterId counter(std::string name);
  /// `base` sets the histogram's bucket geometry (see kHistogramBuckets).
  HistogramId histogram(std::string name, double base = 1e-6);

  // ---- hot-path updates (thread-safe, allocation-free after the calling
  // thread's first touch) ----
  void add(CounterId id, std::uint64_t delta = 1) {
    local_shard().counters[id.slot].add(delta);
  }
  void observe(HistogramId id, double value);

  // ---- read-time merge (thread-safe; sums across shards) ----
  std::uint64_t counter_value(CounterId id) const;
  HistogramSnapshot histogram_value(HistogramId id) const;

  /// Number of thread shards allocated so far.
  std::size_t shards() const;

 private:
  struct HistogramShard {
    RelaxedCell count;
    RelaxedCellD sum;
    RelaxedCell buckets[kHistogramBuckets];
  };
  struct Shard {
    std::vector<RelaxedCell> counters;
    std::vector<std::unique_ptr<HistogramShard>> histograms;
  };

  Shard& local_shard();
  void check_open(const char* what) const;

  const std::uint64_t id_;  ///< process-unique (thread_local cache key)
  mutable std::mutex mutex_;
  bool sealed_ = false;  ///< set once the first shard is handed out
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::vector<double> histogram_bases_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cobra::obs

// SPDX-License-Identifier: MIT
#include "obs/metrics.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace cobra::obs {

namespace {

/// Registries are identified by a process-unique id, not their address —
/// a thread_local cache keyed by pointer could confuse a dead registry
/// with a new one allocated at the same address.
std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

std::size_t histogram_bucket(double value, double base) {
  if (!(value > 0.0) || base <= 0.0) return 0;  // NaN / <= 0 -> bucket 0
  const double ratio = value / base;
  if (ratio < 1.0) return 0;
  int exponent = 0;
  (void)std::frexp(ratio, &exponent);  // ratio in [2^(e-1), 2^e)
  const std::size_t bucket = static_cast<std::size_t>(exponent);
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

void MetricsRegistry::check_open(const char* what) const {
  if (sealed_) {
    throw std::logic_error(std::string("MetricsRegistry: cannot register ") +
                           what + " after a shard was handed out");
  }
}

CounterId MetricsRegistry::counter(std::string name) {
  std::lock_guard lock(mutex_);
  check_open("counter");
  counter_names_.push_back(std::move(name));
  return CounterId{counter_names_.size() - 1};
}

HistogramId MetricsRegistry::histogram(std::string name, double base) {
  std::lock_guard lock(mutex_);
  check_open("histogram");
  if (!(base > 0.0)) {
    throw std::invalid_argument("MetricsRegistry: histogram base must be > 0");
  }
  histogram_names_.push_back(std::move(name));
  histogram_bases_.push_back(base);
  return HistogramId{histogram_names_.size() - 1};
}

void MetricsRegistry::observe(HistogramId id, double value) {
  HistogramShard& h = *local_shard().histograms[id.slot];
  h.count.add(1);
  h.sum.add(value);
  h.buckets[histogram_bucket(value, histogram_bases_[id.slot])].add(1);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  struct CacheEntry {
    std::uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.registry_id == id_) return *entry.shard;
  }
  std::lock_guard lock(mutex_);
  sealed_ = true;
  auto shard = std::make_unique<Shard>();
  shard->counters = std::vector<RelaxedCell>(counter_names_.size());
  shard->histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    shard->histograms.push_back(std::make_unique<HistogramShard>());
  }
  Shard* raw = shard.get();
  shards_.push_back(std::move(shard));
  cache.push_back({id_, raw});
  return *raw;
}

std::uint64_t MetricsRegistry::counter_value(CounterId id) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->counters[id.slot].load();
  return total;
}

HistogramSnapshot MetricsRegistry::histogram_value(HistogramId id) const {
  std::lock_guard lock(mutex_);
  HistogramSnapshot snapshot;
  for (const auto& shard : shards_) {
    const HistogramShard& h = *shard->histograms[id.slot];
    snapshot.count += h.count.load();
    snapshot.sum += h.sum.load();
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snapshot.buckets[b] += h.buckets[b].load();
    }
  }
  return snapshot;
}

std::size_t MetricsRegistry::shards() const {
  std::lock_guard lock(mutex_);
  return shards_.size();
}

}  // namespace cobra::obs

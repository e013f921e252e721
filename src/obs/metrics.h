// Lock-free runtime metrics: monotonic counters, gauges, and log2-bucketed
// histograms with quantile snapshots — the process's one instrument model.
// Complements the tracing layer (obs/trace.h): traces answer "where did this
// run's time go", metrics accumulate cheap aggregates that merge into
// --stats-json. Histograms are unit-neutral; an instrument carries its unit
// in its name ("phase.parse_ns", "serve.request_ns").
//
// Instruments are created through a MetricsRegistry (mutex on creation,
// idempotent by name); recording on an instrument is a handful of relaxed
// atomic ops — safe from any thread, no locks, no allocation. Snapshots are
// racy-but-coherent-per-field, which is fine for reporting.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/json.h"

namespace essent::obs {

// Monotonically increasing event count.
class MetricCounter {
 public:
  void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Last-write-wins double value (e.g. a ratio or queue depth).
class MetricGauge {
 public:
  void set(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // the bit pattern of 0.0
};

// Moments and interpolated quantiles of a Histogram, in the unit of its
// samples. JSON: {count, sum, min, max, mean, p50, p90, p99}.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  Json toJson() const;
};

// Power-of-two bucketed histogram of nonnegative integer samples (durations
// in ns, partition sizes). Bucket 0 holds zeros; bucket i (i >= 1) holds
// [2^(i-1), 2^i). Quantiles interpolate linearly within a bucket, so they
// carry at most ~2x relative error — plenty for p50/p99 reporting.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void record(uint64_t value) {
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    atomicMin(min_, value);
    atomicMax(max_, value);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

  static size_t bucketIndex(uint64_t value) {
    // The bit width of value: 0 for 0 (__builtin_clzll(0) is undefined).
    size_t i = value == 0 ? 0 : static_cast<size_t>(64 - __builtin_clzll(value));
    return i < kBuckets ? i : kBuckets - 1;
  }

 private:
  static void atomicMin(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {}
  }
  static void atomicMax(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {}
  }

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// Named instrument store. counter()/gauge()/histogram() take a creation
// mutex on first use of a name and return a stable reference — cache the
// reference on hot paths. Instruments live until the registry does.
class MetricsRegistry {
 public:
  MetricCounter& counter(const std::string& name);
  MetricGauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  bool empty() const;
  // {"counters": {...}, "gauges": {...}, "histograms": {name: snapshot}}
  Json toJson() const;
  // Drops every instrument (invalidates outstanding references); test-only.
  void clear();

  // Process-wide registry: compile phase timers, farm and serve latencies.
  // Merged into essentc --stats-json / --profile, essentd --metrics-json and
  // the bench artifacts. Never cleared outside tests: SimFarm and the
  // server hold references into it.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace essent::obs

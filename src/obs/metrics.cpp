#include "obs/metrics.h"

#include <algorithm>
#include <vector>

namespace essent::obs {

Json HistogramSnapshot::toJson() const {
  Json j = Json::object();
  j["count"] = count;
  j["sum"] = sum;
  j["min"] = min;
  j["max"] = max;
  j["mean"] = mean;
  j["p50"] = p50;
  j["p90"] = p90;
  j["p99"] = p99;
  return j;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  uint64_t counts[kBuckets];
  for (size_t i = 0; i < kBuckets; i++)
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; i++) s.count += counts[i];
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);

  // Quantile by cumulative walk; interpolate linearly inside the bucket's
  // value range [2^(i-1), 2^i), clamped to the observed [min, max] (so a
  // single sample, e.g. one compile's phase, reports itself).
  auto quantile = [&](double q) -> double {
    double rank = q * static_cast<double>(s.count - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; i++) {
      if (counts[i] == 0) continue;
      double lastInBucket = static_cast<double>(below + counts[i] - 1);
      if (rank <= lastInBucket) {
        if (i == 0) return 0.0;
        double lo = static_cast<double>(uint64_t{1} << (i - 1));
        double hi = lo * 2.0;
        double within = counts[i] > 1
                            ? (rank - static_cast<double>(below)) /
                                  static_cast<double>(counts[i] - 1)
                            : 0.0;
        double v = lo + within * (hi - lo);
        // Not std::clamp: a snapshot racing the first record() can read
        // min > max.
        return std::min(std::max(v, static_cast<double>(s.min)), static_cast<double>(s.max));
      }
      below += counts[i];
    }
    return static_cast<double>(s.max);
  };
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

MetricCounter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<MetricCounter>();
  return *slot;
}

MetricGauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<MetricGauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

Json MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json j = Json::object();
  if (!counters_.empty()) {
    Json c = Json::object();
    for (const auto& [name, m] : counters_) c[name] = m->value();
    j["counters"] = std::move(c);
  }
  if (!gauges_.empty()) {
    Json g = Json::object();
    for (const auto& [name, m] : gauges_) g[name] = m->value();
    j["gauges"] = std::move(g);
  }
  if (!histograms_.empty()) {
    Json h = Json::object();
    for (const auto& [name, m] : histograms_) h[name] = m->snapshot().toJson();
    j["histograms"] = std::move(h);
  }
  return j;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed
  return *g;
}

}  // namespace essent::obs

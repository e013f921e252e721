// Tracing + metrics suite (ctest -L trace; included in the tsan preset).
//
// Covers the obs/trace.h contract end to end: Chrome trace-event JSON
// round-trips through obs::json, per-thread timestamps are monotonic,
// concurrent recording from ThreadPool workers is race-free (this file runs
// under TSan), the disabled hot path records nothing and allocates nothing,
// ring wrap keeps attribution exact, and the lock-free metrics registry
// produces sane quantile snapshots and counts every concurrent compile's
// phases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "core/activity_engine.h"
#include "core/sim_farm.h"
#include "designs/blocks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/compile.h"
#include "support/threadpool.h"

using namespace essent;
using obs::TraceCat;
using obs::TraceDetail;
using obs::TraceSession;
using obs::TraceSpan;

// Global allocation counter for the no-allocation guard test. Counting is
// process-wide; the guard test reads the delta around a tight loop on one
// thread with tracing disabled, where no other test code runs.
//
// GCC's -Wmismatched-new-delete cannot see that this replaced operator new
// backs its result with malloc, matching the free() in operator delete.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(TraceDetailNames, RoundTrip) {
  for (TraceDetail d : {TraceDetail::Phase, TraceDetail::Wave, TraceDetail::Partition}) {
    TraceDetail parsed{};
    ASSERT_TRUE(obs::parseTraceDetail(obs::traceDetailName(d), parsed));
    EXPECT_EQ(parsed, d);
  }
  TraceDetail out{};
  EXPECT_FALSE(obs::parseTraceDetail("verbose", out));
  EXPECT_FALSE(obs::parseTraceDetail("", out));
}

TEST(TraceSession, DisabledByDefaultRecordsNothing) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  { TraceSpan span("never", TraceCat::Busy, TraceDetail::Phase); }
  obs::traceInstant("never");
  obs::traceCounter("never", 1);
  // Nothing to assert against a session; the real guard is the allocation
  // test below plus the fact this cannot crash.
}

TEST(TraceSession, DisabledHotPathDoesNotAllocate) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  uint64_t before = g_allocs.load();
  for (int i = 0; i < 10000; i++) {
    TraceSpan span("guard", TraceCat::Busy, TraceDetail::Wave, "i",
                   static_cast<uint64_t>(i));
    obs::traceInstant("guard.i");
    obs::traceCounter("guard.c", static_cast<uint64_t>(i));
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
}

TEST(TraceSession, RecordsCompleteInstantAndCounterEvents) {
  TraceSession s;
  s.install();
  s.nameThread("main");
  {
    TraceSpan span("work", TraceCat::Busy, TraceDetail::Phase, "item", 7);
  }
  s.instant("marker", "arg", 42);
  s.counter("depth", 3);
  s.uninstall();

  ASSERT_EQ(s.eventCount(), 3u);
  EXPECT_EQ(s.droppedCount(), 0u);
  auto snaps = s.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "main");
  ASSERT_EQ(snaps[0].events.size(), 3u);
  EXPECT_EQ(std::string(snaps[0].events[0].name), "work");
  EXPECT_EQ(snaps[0].events[0].ph, 'X');
  EXPECT_EQ(snaps[0].events[0].cat, TraceCat::Busy);
  EXPECT_EQ(snaps[0].events[0].value, 7u);
  EXPECT_EQ(snaps[0].events[1].ph, 'i');
  EXPECT_EQ(snaps[0].events[2].ph, 'C');
}

TEST(TraceSession, DetailGatingDropsBelowThreshold) {
  TraceSession s({TraceDetail::Phase, 1024});
  s.install();
  { TraceSpan span("phase-span", TraceCat::Busy, TraceDetail::Phase); }
  { TraceSpan span("wave-span", TraceCat::Busy, TraceDetail::Wave); }
  { TraceSpan span("part-span", TraceCat::None, TraceDetail::Partition); }
  obs::traceCounter("ctr", 1);  // counter helper defaults to Wave detail
  s.uninstall();
  EXPECT_EQ(s.eventCount(), 1u);
  EXPECT_EQ(std::string(s.snapshot()[0].events[0].name), "phase-span");
}

TEST(TraceSession, JsonRoundTripsThroughObsJson) {
  TraceSession s;
  s.install();
  s.nameThread("main");
  { TraceSpan span("alpha", TraceCat::Busy, TraceDetail::Phase, "k", 1); }
  s.instant("beta", "n", 2);
  s.counter("gamma", 3);
  s.uninstall();

  obs::Json parsed = obs::Json::parse(s.toJson().dump());
  EXPECT_EQ(parsed.at("displayTimeUnit").asStr(), "ms");
  const obs::Json& events = parsed.at("traceEvents");
  // 1 thread_name metadata + 3 recorded events.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.at(size_t{0}).at("ph").asStr(), "M");
  EXPECT_EQ(events.at(size_t{0}).at("args").at("name").asStr(), "main");
  EXPECT_EQ(events.at(1).at("name").asStr(), "alpha");
  EXPECT_EQ(events.at(1).at("ph").asStr(), "X");
  EXPECT_NE(events.at(1).find("dur"), nullptr);
  EXPECT_EQ(events.at(1).at("args").at("k").asUInt(), 1u);
  EXPECT_EQ(events.at(2).at("ph").asStr(), "i");
  EXPECT_EQ(events.at(2).at("s").asStr(), "t");
  EXPECT_EQ(events.at(3).at("ph").asStr(), "C");
  EXPECT_EQ(events.at(3).at("args").at("value").asUInt(), 3u);
  for (const obs::Json& ev : events.items()) {
    EXPECT_EQ(ev.at("pid").asUInt(), 1u);
    EXPECT_NE(ev.find("tid"), nullptr);
  }
}

TEST(TraceSession, TimestampsMonotonicPerThread) {
  TraceSession s;
  s.install();
  for (int i = 0; i < 500; i++) {
    TraceSpan span("tick", TraceCat::Busy, TraceDetail::Phase);
  }
  s.uninstall();
  for (const auto& snap : s.snapshot()) {
    uint64_t prev = 0;
    for (const obs::TraceEvent& ev : snap.events) {
      EXPECT_GE(ev.tsNs, prev);
      prev = ev.tsNs;
    }
  }
}

TEST(TraceSession, RingWrapKeepsAttributionExact) {
  TraceSession s({TraceDetail::Wave, 16});
  s.install();
  uint64_t busyNs = 0;
  for (int i = 0; i < 100; i++) {
    uint64_t t0 = s.nowNs();
    uint64_t t1;
    do { t1 = s.nowNs(); } while (t1 == t0);  // nonzero duration
    s.complete("work", t0, TraceCat::Busy);
    busyNs += t1 - t0;
  }
  s.uninstall();
  EXPECT_EQ(s.eventCount(), 100u);
  EXPECT_EQ(s.droppedCount(), 100u - 16u);
  auto snaps = s.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].events.size(), 16u);
  EXPECT_EQ(snaps[0].dropped, 84u);
  // catNs accumulates outside the ring: busy totals cover ALL 100 spans,
  // not just the 16 retained (>= because complete() re-reads the clock).
  EXPECT_GE(snaps[0].busyNs, busyNs);
  // The retained window is the newest 16 events, oldest first.
  uint64_t prev = 0;
  for (const obs::TraceEvent& ev : snaps[0].events) {
    EXPECT_GE(ev.tsNs, prev);
    prev = ev.tsNs;
  }
}

TEST(TraceSession, SecondSessionDoesNotInheritThreadCache) {
  {
    TraceSession s1;
    s1.install();
    { TraceSpan span("one", TraceCat::Busy, TraceDetail::Phase); }
    s1.uninstall();
    EXPECT_EQ(s1.eventCount(), 1u);
  }
  TraceSession s2;
  s2.install();
  { TraceSpan span("two", TraceCat::Busy, TraceDetail::Phase); }
  s2.uninstall();
  ASSERT_EQ(s2.eventCount(), 1u);
  EXPECT_EQ(std::string(s2.snapshot()[0].events[0].name), "two");
}

TEST(TraceSession, ConcurrentRecordingFromPoolWorkers) {
  TraceSession s;
  s.install();
  support::ThreadPool pool(4);
  for (int epoch = 0; epoch < 50; epoch++) {
    pool.run([&](unsigned lane) {
      TraceSpan span("lane-work", TraceCat::None, TraceDetail::Wave, "lane", lane);
      obs::traceCounter("lane-counter", lane);
    });
  }
  s.uninstall();
  // Each fork records at least the explicit span+counter per lane, plus the
  // pool's own pool.work/pool.wait/pool.join instrumentation.
  EXPECT_GE(s.eventCount(), 50u * pool.numThreads() * 2u);
  auto snaps = s.snapshot();
  EXPECT_GE(snaps.size(), 1u);  // >= 1 buffer (caller) even if spawns failed
  obs::TraceSummary sum = s.summary();
  for (const obs::TraceThreadSummary& t : sum.threads) {
    double total = t.busyFrac + t.barrierFrac + t.idleFrac;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(TraceSession, PoolWorkSpansCategorizedBusyAndDisjoint) {
  TraceSession s;
  s.install();
  {
    support::ThreadPool pool(2);
    pool.run([&](unsigned) {
      // Categorized engine spans must downgrade inside pooled work.
      EXPECT_TRUE(obs::trace_detail::inPooledWork());
    });
  }
  EXPECT_FALSE(obs::trace_detail::inPooledWork());
  s.uninstall();
  bool sawPoolWork = false;
  for (const auto& snap : s.snapshot())
    for (const obs::TraceEvent& ev : snap.events)
      if (std::string(ev.name) == "pool.work") {
        sawPoolWork = true;
        EXPECT_EQ(ev.cat, TraceCat::Busy);
      }
  EXPECT_TRUE(sawPoolWork);
}

// End-to-end: a traced SimFarm batch (the repo's intra-process
// parallelism) records per-instance and per-tick spans from real pool
// workers, and the summary's per-thread fractions stay normalized — the
// tsan job exercises recording from concurrent engine instances.
TEST(TraceEngine, FarmBatchEmitsNormalizedSummary) {
  auto design = sim::CompiledDesign::compile(
      sim::buildFromFirrtl(designs::gatedBanksFirrtl(32, 16)));
  core::FarmOptions fo;
  fo.workers = 3;
  std::vector<core::FarmJob> jobs(6);
  for (size_t i = 0; i < jobs.size(); i++) {
    jobs[i].maxCycles = 200;
    jobs[i].init = [](sim::Engine& e) {
      e.poke("reset", 0);
      e.poke("wdata", 5);
    };
    jobs[i].stimulus = [i](sim::Engine& e, uint64_t c) { e.poke("bankSel", (c + i) % 32); };
  }
  TraceSession s({TraceDetail::Wave, 1 << 14});
  s.install();
  core::FarmReport report = core::SimFarm(design, fo).run(jobs);
  s.uninstall();
  ASSERT_TRUE(report.allOk());

  EXPECT_GT(s.eventCount(), 0u);
  bool sawInstance = false, sawTick = false, sawWork = false;
  for (const auto& snap : s.snapshot())
    for (const obs::TraceEvent& ev : snap.events) {
      std::string name = ev.name;
      if (name == "farm.instance" && ev.ph == 'X') sawInstance = true;
      if (name == "tick" && ev.ph == 'X') sawTick = true;
      if (name == "pool.work" && ev.ph == 'X') sawWork = true;
    }
  EXPECT_TRUE(sawInstance);
  EXPECT_TRUE(sawTick);
  EXPECT_TRUE(sawWork);

  obs::TraceSummary sum = s.summary();
  EXPECT_GT(sum.windowNs, 0u);
  ASSERT_FALSE(sum.threads.empty());
  for (const obs::TraceThreadSummary& t : sum.threads) {
    EXPECT_NEAR(t.busyFrac + t.barrierFrac + t.idleFrac, 1.0, 1e-9);
    EXPECT_LE(t.busyNs + t.barrierNs, sum.windowNs);
  }
  EXPECT_FALSE(sum.truncated);  // 6 x 200 cycles fit a 16k ring per thread
  std::string rendered = sum.render();
  EXPECT_NE(rendered.find("trace summary"), std::string::npos);
  obs::Json j = sum.toJson();
  EXPECT_NE(j.find("threads"), nullptr);
  EXPECT_NE(j.find("truncated"), nullptr);
}

TEST(TraceEngine, PartitionDetailAddsPartSpans) {
  sim::SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 8));
  TraceSession s({TraceDetail::Partition, 1 << 14});
  s.install();
  {
    core::ActivityEngine eng(
        core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), core::ScheduleOptions{}));
    eng.poke("reset", 0);
    for (int c = 0; c < 20; c++) eng.tick();
  }
  s.uninstall();
  bool sawPart = false;
  for (const auto& snap : s.snapshot())
    for (const obs::TraceEvent& ev : snap.events)
      if (std::string(ev.name) == "part") sawPart = true;
  EXPECT_TRUE(sawPart);
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::MetricCounter& c = reg.counter("events");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(&reg.counter("events"), &c);  // idempotent by name
  reg.gauge("ratio").set(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("ratio").value(), 0.5);
  EXPECT_FALSE(reg.empty());
  obs::Json j = reg.toJson();
  EXPECT_EQ(j.at("counters").at("events").asUInt(), 10u);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("ratio").asDouble(), 0.5);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Metrics, HistogramBucketIndex) {
  EXPECT_EQ(obs::Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketIndex(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
}

TEST(Metrics, HistogramSnapshotQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  // 100 samples at 1000ns, 10 at 1ms: p50 in the 1000ns bucket, p99 in the
  // 1ms bucket (log2 buckets carry <= 2x relative error).
  for (int i = 0; i < 100; i++) h.record(1000);
  for (int i = 0; i < 10; i++) h.record(1'000'000);
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 110u);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1'000'000u);
  EXPECT_NEAR(s.mean, (100.0 * 1000 + 10.0 * 1e6) / 110.0, 1.0);
  EXPECT_GE(s.p50, 512.0);
  EXPECT_LT(s.p50, 2048.0);
  EXPECT_GE(s.p99, 524288.0);
  EXPECT_LE(s.p99, 1'000'000.0);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p99, s.p90);
  obs::Json j = s.toJson();
  EXPECT_EQ(j.at("count").asUInt(), 110u);
  EXPECT_EQ(j.at("sum").asUInt(), 100u * 1000 + 10u * 1'000'000);
  EXPECT_NE(j.find("p50"), nullptr);
  EXPECT_NE(j.find("p99"), nullptr);
  // Quantiles are clamped to [min, max]: one sample reports itself.
  obs::Histogram one;
  one.record(98211);
  EXPECT_DOUBLE_EQ(one.snapshot().p50, 98211.0);
  EXPECT_DOUBLE_EQ(one.snapshot().p99, 98211.0);
}

TEST(Metrics, ConcurrentHistogramRecording) {
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 1000; i++)
        h.record(static_cast<uint64_t>(t * 1000 + i + 1));
    });
  for (auto& th : threads) th.join();
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 3999u + 1u);
}

TEST(Metrics, GlobalRegistryIsSingleton) {
  obs::MetricsRegistry& a = obs::MetricsRegistry::global();
  obs::MetricsRegistry& b = obs::MetricsRegistry::global();
  EXPECT_EQ(&a, &b);
}

// Concurrent compiles record every phase into the one global registry:
// four threads each compile examples/gcd.fir, and each phase histogram
// gains exactly one sample per compile (no lost or torn updates under
// TSan).
TEST(Metrics, ConcurrentCompilesRecordEveryPhase) {
  std::ifstream f(std::string(EXAMPLES_DIR) + "/gcd.fir");
  ASSERT_TRUE(f.good());
  std::stringstream text;
  text << f.rdbuf();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::Histogram& parse = reg.histogram("phase.parse_ns");
  const obs::Histogram& buildIr = reg.histogram("phase.build-ir_ns");
  const uint64_t parse0 = parse.count(), buildIr0 = buildIr.count();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++)
    threads.emplace_back([&text] { EXPECT_NE(sim::compileDesign(text.str()), nullptr); });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(parse.count(), parse0 + 4);
  EXPECT_EQ(buildIr.count(), buildIr0 + 4);
}

}  // namespace

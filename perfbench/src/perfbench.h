// Shared pieces of the repository benchmark: run options, the per-run
// outcome (operations attempted/failed, metrics, exact counts), the span
// tracer, and the interpreted FIRRTL -> engine flow every in-process
// workload uses. Each workload lives in its own source file and drives the
// simulator only through the layers' public entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "sim/engine.h"
#include "sim/engine_factory.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string outDir;  // build directory: counts, traces, scratch files
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

// The fast time of repeated deterministic work: its 5th percentile.
// Contention on a shared host only ever adds time (README.md, "Host noise").
inline double fastTime(const std::vector<double>& seconds) { return percentile(seconds, 5); }

// Host time of an operation that repeats the same deterministic work,
// timed in fixed chunks of it. Contention comes and goes within
// milliseconds; the operation's own time is the sum over its chunks of each
// chunk's fast time across the repetitions.
class ChunkTimes {
 public:
  // Adds one repetition of operation `op` (0, 1, ...): its chunks' times
  // in seconds, in order.
  void add(size_t op, const std::vector<double>& chunkSeconds);
  // Sum over every operation and chunk of the chunk's fast time.
  double fastSeconds() const;
  // Sum over every operation of its median repetition time, for context.
  double medianSeconds() const;
  size_t repetitions(size_t op) const { return op < ops_.size() ? ops_[op].totals.size() : 0; }

 private:
  struct Op {
    std::vector<double> totals;
    std::vector<std::vector<double>> chunks;  // chunk index -> times
  };
  std::vector<Op> ops_;
};

// --- host speed ---------------------------------------------------------------

// The host's speed relative to its reference speed. A fixed reference
// computation (a dependent chain of reads from a 32 KiB table, about a
// millisecond) is timed alongside the workload's operations, on the same
// processors; the speed is its reference time over its fast time in the
// run. main.cpp reports the end-to-end times at the reference speed
// (README.md, "Host noise").
class HostSpeed {
 public:
  // Times one run of the reference computation on the calling thread.
  void sample();
  // Samples for `seconds`, moving to the next processor for each run.
  void sampleFor(double seconds);
  // 1 at the reference speed; below 1 when the host runs slower.
  double speed() const;
  size_t samples() const { return times_.size(); }

 private:
  std::vector<double> times_;
  uint64_t sink_ = 1;
};

HostSpeed& hostSpeed();

// --- processor rotation ------------------------------------------------------

// Moves the calling thread to the next processor it may run on, round-robin
// over its affinity mask. A shared host slows one processor at a time, for
// seconds; rotating per operation makes every run sample all of them.
void rotateProcessor(uint64_t op);
// Restores the affinity mask the process started with.
void restoreProcessors();
// The same for every thread of the process but the calling one: the k-th
// other thread (by thread id) moves to the (k + step)-th allowed processor,
// so a multi-threaded loop samples every processor too. Threads started
// later inherit the mask of the thread that starts them.
void rotateOtherThreads(uint64_t step);
void restoreOtherThreads();

// --- tracing ----------------------------------------------------------------

// Spans recorded from the benchmark's own files around each call into a
// layer. They stay in memory and are written out when the run ends. A span
// names its parent (the innermost open span on the same thread); spans of
// one daemon request share a request id.
class Tracer {
 public:
  struct Rec {
    std::string name;
    int64_t parent = -1;  // index into spans(), -1 for roots
    uint64_t request = 0; // 0 = not part of a daemon request
    int64_t startNs = 0;
    int64_t endNs = -1;
  };

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Returns the span index, or -1 when tracing is off for the run or for
  // the calling thread (see TraceToggle).
  int64_t open(const std::string& name, uint64_t request);
  void close(int64_t idx);

  std::vector<Rec> spans() const;
  // Self time per span name (duration minus the union of its children),
  // summed over every closed span.
  std::map<std::string, double> selfSeconds() const;
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
  Clock::time_point epoch_ = Clock::now();
};

Tracer& tracer();

// Turns span recording off (or back on) for the calling thread while in
// scope. The traced run alternates traced and untraced operations with it,
// so one run measures the tracing overhead.
class TraceToggle {
 public:
  explicit TraceToggle(bool on);
  ~TraceToggle();
  TraceToggle(const TraceToggle&) = delete;
  TraceToggle& operator=(const TraceToggle&) = delete;

 private:
  bool prev_;
};

class Span {
 public:
  explicit Span(const std::string& name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t idx_;
  int64_t prevParent_;
};

// --- outcome ----------------------------------------------------------------

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr

  // Metric values by name; units and the required names are listed in
  // main.cpp and BENCHMARK.json.
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> layer;
  // Counts that must repeat bit-exactly for one seed: within the run and
  // across runs. A mismatch is recorded here and fails the self-check.
  std::map<std::string, uint64_t> exact;
  std::vector<std::string> exactMismatches;

  // Records one checked operation; a false `ok` counts as failed.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double v) { endToEnd[name] = v; }
  void lay(const std::string& name, double v) { layer[name] = v; }
  // Adds an exact count; a later value under the same key must match.
  void exactCount(const std::string& key, uint64_t v);
};

// --- the interpreted flow ---------------------------------------------------

// FIRRTL text -> ready CCSS engine the way the tools do it:
// sim::compileDesign, then sim::makeEngine. setup_s times this.
struct Interpreted {
  std::shared_ptr<const essent::sim::CompiledDesign> design;
  std::unique_ptr<essent::sim::Engine> engine;
  double compileS = 0, engineInitS = 0;
  double totalS() const { return compileS + engineInitS; }
};
Interpreted buildInterpreted(const std::string& firrtlText, bool makeEngine = true);

// The same design built layer by layer through firrtl::parseCircuit,
// firrtl::lowerCircuit, sim::buildSimIR and CompiledDesign::compile, each a
// traced span, for the per-layer split of the front end.
struct Layered {
  std::shared_ptr<const essent::sim::CompiledDesign> design;
  double parseS = 0, lowerS = 0, buildIrS = 0, sealS = 0;
  double totalS() const { return parseS + lowerS + buildIrS + sealS; }
};
Layered buildLayered(const std::string& firrtlText);
// Records the firrtl.* and sim.* set-up metrics as medians of `builds`.
void recordLayered(Outcome& out, const std::vector<Layered>& builds);

// Builds `reps` times, keeping the last build, and records sim.ir_ops as an
// exact count and core.engine_init_s. `medianS` is the median of the whole
// build. With `layered` (the traced run) each repetition also makes a
// layer-by-layer build, for the per-layer metrics.
struct FrontendSetup {
  Interpreted built;
  double medianS = 0;
};
FrontendSetup setUpInterpreted(const std::string& firrtlText, unsigned reps, bool layered,
                               Outcome& out, bool makeEngine = true);

// core::Netlist::build + core::buildSchedule on the design, each a span.
struct ScheduleBuild {
  essent::core::CondPartSchedule sched;
  double netlistS = 0, scheduleS = 0;
};
ScheduleBuild buildScheduleLayer(const essent::sim::SimIR& ir);
// Records core.netlist_s / core.schedule_s and the exact partition counts.
void recordSchedule(Outcome& out, const ScheduleBuild& b);

void addStats(essent::sim::EngineStats& sum, const essent::sim::EngineStats& s);
// Per-cycle engine metrics (Figure 7 split) from summed counters over the
// timed simulation.
void reportEngineCounters(Outcome& out, const essent::sim::EngineStats& s, double simSeconds);
// Adds every EngineStats counter to the exact counts under `prefix`.
void exactEngineCounters(Outcome& out, const std::string& prefix,
                         const essent::sim::EngineStats& s);

// --- workloads --------------------------------------------------------------

Outcome runBoomLowact(const RunOptions& opt);
Outcome runSystolicDense(const RunOptions& opt);
Outcome runMidsocCompiled(const RunOptions& opt);
Outcome runEssentdMix(const RunOptions& opt);

}  // namespace perfbench

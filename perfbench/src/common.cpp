#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/netlist.h"
#include "firrtl/parser.h"
#include "firrtl/passes.h"
#include "obs/json.h"
#include "perfbench.h"
#include "sim/builder.h"
#include "sim/compile.h"

namespace perfbench {

using namespace essent;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

void ChunkTimes::add(size_t op, const std::vector<double>& chunkSeconds) {
  if (ops_.size() <= op) ops_.resize(op + 1);
  Op& o = ops_[op];
  double total = 0;
  if (o.chunks.size() < chunkSeconds.size()) o.chunks.resize(chunkSeconds.size());
  for (size_t c = 0; c < chunkSeconds.size(); c++) {
    o.chunks[c].push_back(chunkSeconds[c]);
    total += chunkSeconds[c];
  }
  o.totals.push_back(total);
}

double ChunkTimes::fastSeconds() const {
  double sum = 0;
  for (const Op& o : ops_)
    for (const std::vector<double>& times : o.chunks) sum += fastTime(times);
  return sum;
}

double ChunkTimes::medianSeconds() const {
  double sum = 0;
  for (const Op& o : ops_) sum += median(o.totals);
  return sum;
}

// --- host speed ---------------------------------------------------------------

namespace {
// The reference computation and its fast time on the reference host
// (README.md, "Host noise"). Neither may change: every end-to-end time is
// scaled by them.
constexpr uint32_t kKernelTableWords = 1u << 12;  // 32 KiB: stays in L1
constexpr uint32_t kKernelSteps = 200'000;
constexpr double kKernelReferenceS = 0.65e-3;
}  // namespace

void HostSpeed::sample() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kKernelTableWords);
    for (uint64_t i = 0; i < t.size(); i++) t[i] = i * 0x9e3779b97f4a7c15ULL;
    return t;
  }();
  uint64_t x = sink_;
  for (uint64_t v : table) x += v;  // untimed: bring the table into the cache
  Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < kKernelSteps; i++)
    x = x * 6364136223846793005ULL + table[(x >> 20) & (kKernelTableWords - 1)];
  times_.push_back(secondsSince(t0));
  sink_ = x | 1;
}

void HostSpeed::sampleFor(double seconds) {
  Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; secondsSince(t0) < seconds; i++) {
    rotateProcessor(i);
    sample();
  }
  restoreProcessors();
}

double HostSpeed::speed() const {
  return times_.empty() ? 1.0 : kKernelReferenceS / fastTime(times_);
}

HostSpeed& hostSpeed() {
  static HostSpeed s;
  return s;
}

// --- processor rotation ------------------------------------------------------

namespace {
cpu_set_t& startMask() {
  static cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof m, &m) != 0) CPU_ZERO(&m);
    return m;
  }();
  return mask;
}

// The nth processor of the start mask.
int nthProcessor(uint64_t n) {
  cpu_set_t& all = startMask();
  int want = static_cast<int>(n % static_cast<uint64_t>(std::max(CPU_COUNT(&all), 1)));
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &all) && want-- == 0) return cpu;
  return -1;
}

std::vector<pid_t> otherThreads() {
  std::vector<pid_t> tids;
  const pid_t self = static_cast<pid_t>(::gettid());
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(d)) {
      pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    ::closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}
}  // namespace

void rotateProcessor(uint64_t op) {
  if (CPU_COUNT(&startMask()) <= 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(nthProcessor(op), &one);
  sched_setaffinity(0, sizeof one, &one);
}

void restoreProcessors() {
  cpu_set_t& all = startMask();
  if (CPU_COUNT(&all) > 0) sched_setaffinity(0, sizeof all, &all);
}

void rotateOtherThreads(uint64_t step) {
  if (CPU_COUNT(&startMask()) <= 1) return;
  std::vector<pid_t> tids = otherThreads();
  for (size_t k = 0; k < tids.size(); k++) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(nthProcessor(k + step), &one);
    sched_setaffinity(tids[k], sizeof one, &one);  // a thread that has ended is skipped
  }
}

void restoreOtherThreads() {
  cpu_set_t& all = startMask();
  if (CPU_COUNT(&all) == 0) return;
  for (pid_t tid : otherThreads()) sched_setaffinity(tid, sizeof all, &all);
}

// --- tracing ----------------------------------------------------------------

namespace {
thread_local int64_t tlsParent = -1;
thread_local bool tlsTracing = true;
}

TraceToggle::TraceToggle(bool on) : prev_(tlsTracing) { tlsTracing = on; }
TraceToggle::~TraceToggle() { tlsTracing = prev_; }

Tracer& tracer() {
  static Tracer t;
  return t;
}

int64_t Tracer::open(const std::string& name, uint64_t request) {
  if (!enabled() || !tlsTracing) return -1;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t req = request;
  if (req == 0 && tlsParent >= 0) req = spans_[static_cast<size_t>(tlsParent)].request;
  spans_.push_back({name, tlsParent, req, now, -1});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::close(int64_t idx) {
  if (idx < 0) return;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(idx)].endNs = now;
}

std::vector<Tracer::Rec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<Rec> all = spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(all.size());
  for (const Rec& r : all)
    if (r.parent >= 0 && r.endNs >= 0)
      kids[static_cast<size_t>(r.parent)].push_back({r.startNs, r.endNs});
  std::map<std::string, double> self;
  for (size_t i = 0; i < all.size(); i++) {
    const Rec& r = all[i];
    if (r.endNs < 0) continue;
    // Union of the children's intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, curS = 0, curE = -1;
    for (auto [s, e] : iv) {
      s = std::max(s, r.startNs);
      e = std::min(e, r.endNs);
      if (e <= s) continue;
      if (s > curE) {
        if (curE > curS) covered += curE - curS;
        curS = s;
        curE = e;
      } else {
        curE = std::max(curE, e);
      }
    }
    if (curE > curS) covered += curE - curS;
    self[r.name] += static_cast<double>(r.endNs - r.startNs - covered) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  obs::Json arr = obs::Json::array();
  for (const Rec& r : spans()) {
    obs::Json s = obs::Json::object();
    s["name"] = r.name;
    s["parent"] = static_cast<long long>(r.parent);
    s["request"] = r.request;
    s["start_ns"] = static_cast<long long>(r.startNs);
    s["end_ns"] = static_cast<long long>(r.endNs);
    arr.push(std::move(s));
  }
  obs::writeJsonFile(path, arr);
}

Span::Span(const std::string& name, uint64_t request) : prevParent_(tlsParent) {
  idx_ = tracer().open(name, request);
  if (idx_ >= 0) tlsParent = idx_;
}

Span::~Span() {
  tracer().close(idx_);
  tlsParent = prevParent_;
}

// --- outcome ----------------------------------------------------------------

void Outcome::check(bool ok, const std::string& what) {
  attempted++;
  if (ok) return;
  failed++;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::exactCount(const std::string& key, uint64_t v) {
  auto [it, inserted] = exact.emplace(key, v);
  if (!inserted && it->second != v)
    exactMismatches.push_back(key + " changed within the run: " + std::to_string(it->second) +
                              " then " + std::to_string(v));
}

// --- the interpreted flow ---------------------------------------------------

Interpreted buildInterpreted(const std::string& firrtlText, bool withEngine) {
  Interpreted r;
  Clock::time_point t = Clock::now();
  {
    Span s("sim.compile");
    r.design = sim::compileDesign(firrtlText);
  }
  r.compileS = secondsSince(t);
  if (withEngine) {
    t = Clock::now();
    Span s("core.engine_init");
    r.engine = sim::makeEngine(sim::EngineKind::Ccss, r.design);
    r.engineInitS = secondsSince(t);
  }
  return r;
}

Layered buildLayered(const std::string& firrtlText) {
  Layered r;
  auto lap = [](Clock::time_point& t) {
    double s = secondsSince(t);
    t = Clock::now();
    return s;
  };
  Clock::time_point t = Clock::now();
  std::unique_ptr<firrtl::Circuit> circuit;
  {
    Span s("firrtl.parse");
    circuit = firrtl::parseCircuit(firrtlText);
  }
  r.parseS = lap(t);
  std::unique_ptr<firrtl::Module> lowered;
  {
    Span s("firrtl.lower");
    lowered = firrtl::lowerCircuit(*circuit);
  }
  r.lowerS = lap(t);
  sim::SimIR ir;
  {
    Span s("sim.build_ir");
    ir = sim::buildSimIR(*lowered, sim::BuildOptions{});
  }
  r.buildIrS = lap(t);
  {
    Span s("sim.seal");
    r.design = sim::CompiledDesign::compile(std::move(ir));
  }
  r.sealS = lap(t);
  return r;
}

void recordLayered(Outcome& out, const std::vector<Layered>& builds) {
  auto med = [&](double Layered::* f) {
    std::vector<double> v;
    for (const Layered& b : builds) v.push_back(b.*f);
    return median(v);
  };
  out.lay("firrtl.parse_s", med(&Layered::parseS));
  out.lay("firrtl.lower_s", med(&Layered::lowerS));
  out.lay("sim.build_ir_s", med(&Layered::buildIrS));
  out.lay("sim.seal_s", med(&Layered::sealS));
  std::printf("front end, layer by layer: %zu builds, median parse %.4f lower %.4f build-ir "
              "%.4f seal %.4f s\n",
              builds.size(), med(&Layered::parseS), med(&Layered::lowerS),
              med(&Layered::buildIrS), med(&Layered::sealS));
}

FrontendSetup setUpInterpreted(const std::string& firrtlText, unsigned reps, bool layered,
                               Outcome& out, bool withEngine) {
  std::vector<double> total, compile, init;
  std::vector<Layered> layers;
  FrontendSetup r;
  for (unsigned i = 0; i < reps; i++) {
    r.built = Interpreted{};  // free the previous build before the next
    rotateProcessor(i);
    hostSpeed().sample();
    {
      Span s("perfbench.setup");
      r.built = buildInterpreted(firrtlText, withEngine);
    }
    total.push_back(r.built.totalS());
    compile.push_back(r.built.compileS);
    init.push_back(r.built.engineInitS);
    out.exactCount("sim.ir_ops", r.built.design->ir.ops.size());
    if (layered) {
      Span s("perfbench.layered");
      layers.push_back(buildLayered(firrtlText));
      layers.back().design.reset();
    }
  }
  restoreProcessors();
  r.medianS = median(total);
  out.lay("sim.ir_ops", static_cast<double>(r.built.design->ir.ops.size()));
  if (withEngine) out.lay("core.engine_init_s", median(init));
  if (layered) recordLayered(out, layers);
  std::printf("set-up: %u builds, median %.4f s (compileDesign %.4f + makeEngine %.4f)\n", reps,
              r.medianS, median(compile), median(init));
  return r;
}

ScheduleBuild buildScheduleLayer(const sim::SimIR& ir) {
  ScheduleBuild b;
  Clock::time_point t0 = Clock::now();
  core::Netlist nl;
  {
    Span s("core.netlist");
    nl = core::Netlist::build(ir);
  }
  b.netlistS = secondsSince(t0);
  t0 = Clock::now();
  {
    Span s("core.schedule");
    b.sched = core::buildSchedule(nl, core::ScheduleOptions{});
  }
  b.scheduleS = secondsSince(t0);
  return b;
}

void recordSchedule(Outcome& out, const ScheduleBuild& b) {
  out.lay("core.netlist_s", b.netlistS);
  out.lay("core.schedule_s", b.scheduleS);
  out.lay("core.partitions", static_cast<double>(b.sched.numPartitions()));
  out.lay("core.cut_edges", static_cast<double>(b.sched.partitionStats.cutEdges));
  out.lay("core.elided_regs", static_cast<double>(b.sched.elidedRegs));
  out.exactCount("core.partitions", b.sched.numPartitions());
  out.exactCount("core.cut_edges", static_cast<uint64_t>(b.sched.partitionStats.cutEdges));
  out.exactCount("core.elided_regs", b.sched.elidedRegs);
}

void addStats(sim::EngineStats& sum, const sim::EngineStats& s) {
  sum.cycles += s.cycles;
  sum.opsEvaluated += s.opsEvaluated;
  sum.partitionChecks += s.partitionChecks;
  sum.partitionActivations += s.partitionActivations;
  sum.outputComparisons += s.outputComparisons;
  sum.triggerSets += s.triggerSets;
  sum.signalsChangedTotal += s.signalsChangedTotal;
}

void reportEngineCounters(Outcome& out, const sim::EngineStats& s, double simSeconds) {
  double cyc = s.cycles ? static_cast<double>(s.cycles) : 1.0;
  out.lay("core.tick_ns", simSeconds * 1e9 / cyc);
  out.lay("core.checks_per_cycle", static_cast<double>(s.partitionChecks) / cyc);
  out.lay("core.ops_per_cycle", static_cast<double>(s.opsEvaluated) / cyc);
  out.lay("core.ns_per_op",
          s.opsEvaluated ? simSeconds * 1e9 / static_cast<double>(s.opsEvaluated) : 0);
  out.lay("core.compares_per_cycle", static_cast<double>(s.outputComparisons) / cyc);
  out.lay("core.trigger_sets_per_cycle", static_cast<double>(s.triggerSets) / cyc);
  out.lay("core.effective_activity",
          s.partitionChecks ? static_cast<double>(s.partitionActivations) /
                                  static_cast<double>(s.partitionChecks)
                            : 0);
}

void exactEngineCounters(Outcome& out, const std::string& prefix, const sim::EngineStats& s) {
  out.exactCount(prefix + ".cycles", s.cycles);
  out.exactCount(prefix + ".ops_evaluated", s.opsEvaluated);
  out.exactCount(prefix + ".partition_checks", s.partitionChecks);
  out.exactCount(prefix + ".partition_activations", s.partitionActivations);
  out.exactCount(prefix + ".output_comparisons", s.outputComparisons);
  out.exactCount(prefix + ".trigger_sets", s.triggerSets);
  out.exactCount(prefix + ".signals_changed", s.signalsChangedTotal);
}

}  // namespace perfbench

// systolic-dense: a 16x16 output-stationary systolic array fed fresh
// seeded operands on every row and column every cycle. Activity is near
// 100%, so CCSS skips almost nothing: base work and the output-compare /
// trigger (dynamic) overhead dominate the tick. This is the counter-
// workload for any change aimed at the partition checks.
#include <cstdio>

#include "designs/systolic.h"
#include "perfbench.h"
#include "support/rng.h"
#include "support/strutil.h"

namespace perfbench {

using namespace essent;

namespace {

constexpr uint32_t kRows = 16;
constexpr uint32_t kCols = 16;
constexpr uint32_t kBlockCycles = 1024;  // one checked operation, from reset
constexpr uint32_t kChunkCycles = 16;    // about a millisecond: the fast-time grain
constexpr unsigned kSetupReps = 25;

struct Stimulus {
  std::vector<std::string> names;  // a0.., b0.., rowSel, colSel
  std::vector<uint64_t> values;    // kBlockCycles x names.size()
};

Stimulus seededStimulus(uint64_t seed) {
  Stimulus st;
  for (uint32_t i = 0; i < kRows; i++) st.names.push_back(strfmt("a%u", i));
  for (uint32_t j = 0; j < kCols; j++) st.names.push_back(strfmt("b%u", j));
  st.names.push_back("rowSel");
  st.names.push_back("colSel");
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 5);
  for (uint32_t c = 0; c < kBlockCycles; c++)
    for (size_t k = 0; k < st.names.size(); k++) st.values.push_back(rng.next());
  return st;
}

// Runs one block from reset; returns a hash of the checksum output over
// every cycle. With `chunkSeconds`, times every kChunkCycles cycles.
uint64_t runBlock(sim::Engine& eng, const Stimulus& st, int32_t checksumSig,
                  std::vector<double>* chunkSeconds = nullptr) {
  Clock::time_point chunk = Clock::now();
  eng.resetState();
  eng.poke("en", 1);
  uint64_t h = 0;
  const size_t n = st.names.size();
  for (uint32_t c = 0; c < kBlockCycles; c++) {
    for (size_t k = 0; k < n; k++) eng.poke(st.names[k], st.values[c * n + k]);
    eng.poke("clear", (c & 255) == 255 ? 1 : 0);
    eng.tick();
    h = h * 0x100000001b3ULL + eng.peekSig(checksumSig);
    if (chunkSeconds && (c + 1) % kChunkCycles == 0) {
      Clock::time_point now = Clock::now();
      chunkSeconds->push_back(std::chrono::duration<double>(now - chunk).count());
      chunk = now;
    }
  }
  return h;
}

}  // namespace

Outcome runSystolicDense(const RunOptions& opt) {
  Outcome out;
  designs::SystolicConfig cfg;
  cfg.rows = kRows;
  cfg.cols = kCols;
  const std::string text = designs::systolicFirrtl(cfg);
  FrontendSetup setup = setUpInterpreted(text, kSetupReps, opt.trace, out);
  out.e2e("setup_s", setup.medianS);
  const Interpreted& built = setup.built;
  recordSchedule(out, buildScheduleLayer(built.design->ir));

  const Stimulus st = seededStimulus(opt.seed);
  const int32_t checksumSig = built.design->ir.findSignal("checksum");
  uint64_t expected = 0;
  {
    Span s("perfbench.reference");
    auto ref = sim::makeEngine(sim::EngineKind::FullCycle, built.design);
    expected = runBlock(*ref, st, checksumSig);
  }

  sim::Engine& eng = *built.engine;
  sim::EngineStats sum;
  double simSeconds = 0;
  ChunkTimes times;
  std::vector<double> traced, plain;
  size_t blocks = 0;
  Clock::time_point t0 = Clock::now();
  const unsigned minBlocks = opt.trace ? 2 : 1;  // a traced and an untraced block
  for (; blocks < minBlocks || secondsSince(t0) < opt.seconds; blocks++) {
    rotateProcessor(blocks);
    hostSpeed().sample();
    bool on = opt.trace && blocks % 2 == 0;
    TraceToggle toggle(on);
    Span op("perfbench.op");
    std::vector<double> chunks;
    Clock::time_point b0 = Clock::now();
    uint64_t got;
    {
      Span s("core.tick");
      got = runBlock(eng, st, checksumSig, &chunks);
    }
    double secs = secondsSince(b0);
    bool ok = got == expected;
    out.check(ok, "systolic checksum differs from the full-cycle reference");
    const sim::EngineStats& stats = eng.stats();
    exactEngineCounters(out, "systolic", stats);
    out.exactCount("sim_cycles", stats.cycles);
    addStats(sum, stats);
    if (ok) times.add(0, chunks);
    simSeconds += secs;
    (on ? traced : plain).push_back(secs);
  }
  restoreProcessors();

  // Every block simulates the same cycles; the engine's own count is reported.
  const double cycles = static_cast<double>(out.exact["sim_cycles"]);
  const double khz = cycles / times.fastSeconds() / 1e3;
  out.e2e("sim_khz", khz);
  out.e2e("sim_cycles", cycles);
  reportEngineCounters(out, sum, simSeconds);
  if (opt.trace) out.lay("perfbench.trace_overhead_ms", (median(traced) - median(plain)) * 1e3);
  std::printf("simulation: %zu blocks of %.0f cycles; %.1f kHz at the chunks' fast time, "
              "%.1f kHz at the median block\n",
              blocks, cycles, khz, cycles / times.medianSeconds() / 1e3);
  return out;
}

}  // namespace perfbench

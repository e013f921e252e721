// boom-lowact: the paper's largest Table III row. The boom-preset TinySoC
// (~128k netlist nodes) runs dhrystone, matmul and pchase back to back on
// one compiled design; the seed draws matmul's and pchase's data. Effective
// activity is a few percent, so the partition checks (static overhead)
// dominate the tick, and the frontend and partitioner do their most work.
#include <cstdio>

#include "designs/tinysoc.h"
#include "perfbench.h"
#include "support/rng.h"
#include "workloads/driver.h"
#include "workloads/programs.h"

namespace perfbench {

using namespace essent;

namespace {

// Sized so a round of the three programs runs some 0.2 s of CCSS
// simulation on a 2020s x86 core: a 10 s run repeats each dozens of times.
constexpr uint32_t kDhrystoneIters = 48;
constexpr uint32_t kMatmulN = 4;
constexpr uint32_t kMatmulRepeats = 1;
constexpr uint32_t kPchaseLength = 64;
constexpr uint32_t kPchaseLaps = 8;
constexpr uint64_t kMaxCycles = 20'000'000;
constexpr unsigned kSetupReps = 7;
// About a millisecond of simulation: the grain of the fast-time estimate.
constexpr uint64_t kChunkCycles = 32;

// The programs with their data drawn from the seed (dhrystone has none).
std::vector<workloads::Program> seededPrograms(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<workloads::Program> progs;
  progs.push_back(workloads::dhrystoneProgram(kDhrystoneIters));

  workloads::Program mm = workloads::matmulProgram(kMatmulN, kMatmulRepeats);
  for (auto& [addr, val] : mm.data) val = static_cast<uint16_t>(rng.next());
  progs.push_back(std::move(mm));

  // A fresh single-cycle permutation (Sattolo) keeps the chase a full lap.
  workloads::Program pc = workloads::pchaseProgram(kPchaseLength, kPchaseLaps);
  std::vector<uint32_t> perm(kPchaseLength);
  for (uint32_t i = 0; i < kPchaseLength; i++) perm[i] = i;
  for (uint32_t i = kPchaseLength - 1; i >= 1; i--)
    std::swap(perm[i], perm[static_cast<uint32_t>(rng.nextBelow(i))]);
  pc.data.clear();
  for (uint32_t i = 0; i < kPchaseLength; i++)
    pc.data.emplace_back(static_cast<uint16_t>(256 + i), static_cast<uint16_t>(256 + perm[i]));
  progs.push_back(std::move(pc));
  return progs;
}

struct ProgramRun {
  bool halted = false;
  uint64_t instret = 0;
  uint64_t result = 0;  // dmem[21], each program's final checksum
  std::vector<double> chunkSeconds;
  double seconds = 0;
  sim::EngineStats stats;
};

// Runs the loaded program from reset until it halts, as
// workloads::runWorkload does (two reset ticks, then Engine::tick until the
// design stops), timing every kChunkCycles ticks.
ProgramRun runProgram(sim::Engine& eng) {
  ProgramRun r;
  const Clock::time_point start = Clock::now();
  Clock::time_point chunk = start;
  auto lap = [&] {
    Clock::time_point now = Clock::now();
    r.chunkSeconds.push_back(std::chrono::duration<double>(now - chunk).count());
    chunk = now;
  };
  eng.poke("reset", 1);
  eng.tick();
  eng.tick();
  eng.poke("reset", 0);
  for (uint64_t c = 2; c < kMaxCycles && !eng.stopped();) {
    eng.tick();
    if (++c % kChunkCycles == 0) lap();
  }
  lap();
  r.seconds = secondsSince(start);
  r.halted = eng.stopped();
  r.instret = eng.peek("instret");
  r.result = eng.peekMem("dmem", 21);
  r.stats = eng.stats();
  return r;
}

}  // namespace

Outcome runBoomLowact(const RunOptions& opt) {
  Outcome out;
  const std::string text = designs::tinySoCFirrtl(designs::socBoom());
  FrontendSetup setup = setUpInterpreted(text, kSetupReps, opt.trace, out);
  out.e2e("setup_s", setup.medianS);
  const Interpreted& built = setup.built;
  recordSchedule(out, buildScheduleLayer(built.design->ir));

  std::vector<workloads::Program> progs = seededPrograms(opt.seed);
  std::vector<workloads::RefState> refs;
  for (const auto& p : progs) refs.push_back(workloads::runReferenceModel(p, kMaxCycles));

  sim::Engine& eng = *built.engine;
  sim::EngineStats sum;
  double simSeconds = 0;
  ChunkTimes times;
  std::vector<double> tracedRounds, plainRounds;
  uint64_t roundCycles = 0, ops = 0;
  size_t rounds = 0;
  Clock::time_point t0 = Clock::now();
  const unsigned minRounds = opt.trace ? 2 : 1;  // a traced and an untraced round
  for (; rounds < minRounds || secondsSince(t0) < opt.seconds; rounds++) {
    bool traced = opt.trace && rounds % 2 == 0;
    TraceToggle toggle(traced);
    uint64_t cycles = 0;
    double seconds = 0;
    for (size_t i = 0; i < progs.size(); i++) {
      rotateProcessor(ops++);
      hostSpeed().sample();
      Span op("perfbench.op");
      eng.resetState();
      workloads::loadProgram(eng, progs[i]);
      ProgramRun r;
      {
        Span s("core.tick");
        r = runProgram(eng);
      }
      bool ok = r.halted && r.result == refs[i].regs[1] && r.instret == refs[i].instret;
      out.check(ok, progs[i].name + ": result " + std::to_string(r.result) + " instret " +
                        std::to_string(r.instret) + ", reference " +
                        std::to_string(refs[i].regs[1]) + " / " + std::to_string(refs[i].instret));
      exactEngineCounters(out, "boom." + progs[i].name, r.stats);
      addStats(sum, r.stats);
      if (ok) times.add(i, r.chunkSeconds);
      cycles += r.stats.cycles;
      seconds += r.seconds;
    }
    roundCycles = cycles;
    out.exactCount("sim_cycles", cycles);
    simSeconds += seconds;
    (traced ? tracedRounds : plainRounds).push_back(seconds);
  }
  restoreProcessors();

  const double khz = static_cast<double>(roundCycles) / times.fastSeconds() / 1e3;
  out.e2e("sim_khz", khz);
  out.e2e("sim_cycles", static_cast<double>(roundCycles));
  reportEngineCounters(out, sum, simSeconds);
  if (opt.trace)
    out.lay("perfbench.trace_overhead_ms", (median(tracedRounds) - median(plainRounds)) * 1e3);
  std::printf("simulation: %zu rounds of %llu cycles; %.1f kHz at the chunks' fast time, "
              "%.1f kHz at the median round\n",
              rounds, static_cast<unsigned long long>(roundCycles), khz,
              static_cast<double>(roundCycles) / times.medianSeconds() / 1e3);
  return out;
}

}  // namespace perfbench

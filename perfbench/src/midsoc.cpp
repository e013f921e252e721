// midsoc-compiled: the paper's shipped flow. The mid-size TinySoC of the
// compiled-flow exhibit (8 accelerators x 32 lanes, ~2.4k IR ops) goes
// FIRRTL -> SimIR -> CCSS schedule -> codegen::emitCpp -> host C++ compiler,
// and the compiled simulator runs dhrystone repeatedly. Host compilation
// dominates set-up; it is the only workload that touches codegen.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/emitter.h"
#include "designs/tinysoc.h"
#include "perfbench.h"
#include "support/subprocess.h"
#include "support/tempdir.h"
#include "workloads/programs.h"

namespace perfbench {

using namespace essent;

namespace {

constexpr uint32_t kDhrystoneIters = 2048;  // ~10 ms per compiled run
constexpr uint64_t kChunkCycles = 4096;     // about a millisecond: the fast-time grain
constexpr unsigned kSetupReps = 3;
constexpr double kSpeedSampleS = 0.25;  // host-speed samples before and after the run
constexpr int64_t kHostCompileTimeoutMs = 150'000;
constexpr uint64_t kMaxCycles = 5'000'000;

designs::SoCConfig midsoc() {
  designs::SoCConfig cfg = designs::socTiny();
  cfg.name = "midsoc";
  cfg.numAccels = 8;
  cfg.accelLanes = 32;
  cfg.dmemDepth = 1024;
  return cfg;
}

// The generated simulator plus a main() that runs the program from reset
// until HALT, again and again until argv[1] seconds have passed, printing
// one "iter" line per run with the times of its kChunkCycles-cycle chunks.
// Like the in-process workloads it moves to the next processor for each
// iteration (perfbench.h, rotateProcessor).
std::string harnessSource(const std::string& code, const sim::SimIR& ir,
                          const workloads::Program& prog) {
  std::ostringstream f;
  f << code << "#include <sched.h>\n#include <chrono>\n#include <cstdlib>\n#include <memory>\n";
  f << "static const unsigned short prog_code[] = {";
  for (size_t i = 0; i < prog.code.size(); i++) f << (i ? "," : "") << prog.code[i];
  f << "};\n";
  const std::string instret = codegen::memberName(ir, ir.findSignal("instret"));
  f << "int main(int argc, char** argv) {\n"
       "  const double budget = argc > 1 ? std::atof(argv[1]) : 1.0;\n"
       "  auto start = std::chrono::steady_clock::now();\n"
       "  cpu_set_t all;\n"
       "  CPU_ZERO(&all);\n"
       "  sched_getaffinity(0, sizeof all, &all);\n"
       "  for (unsigned it = 0;; it++) {\n"
       "    // Round-robin over the allowed processors, one per iteration.\n"
       "    for (int cpu = 0, k = 0; CPU_COUNT(&all) > 1 && cpu < CPU_SETSIZE; cpu++)\n"
       "      if (CPU_ISSET(cpu, &all) && k++ == int(it % CPU_COUNT(&all))) {\n"
       "        cpu_set_t one;\n"
       "        CPU_ZERO(&one);\n"
       "        CPU_SET(cpu, &one);\n"
       "        sched_setaffinity(0, sizeof one, &one);\n"
       "        break;\n"
       "      }\n"
       "    auto sim = std::make_unique<essent_gen::Simulator>();\n"
       "    for (unsigned i = 0; i < sizeof(prog_code) / 2; i++) sim->mem_imem[i] = prog_code[i];\n"
       "    static long long chunk_ns[" << kMaxCycles / kChunkCycles + 2 << "];\n"
       "    unsigned chunks = 0;\n"
       "    auto t0 = std::chrono::steady_clock::now(), c0 = t0;\n"
       "    auto lap = [&] {\n"
       "      auto now = std::chrono::steady_clock::now();\n"
       "      chunk_ns[chunks++] =\n"
       "          std::chrono::duration_cast<std::chrono::nanoseconds>(now - c0).count();\n"
       "      c0 = now;\n"
       "    };\n"
       "    unsigned long long cycles = 2;\n"
       "    sim->reset = 1; sim->eval(); sim->eval(); sim->reset = 0;\n"
       "    while (!sim->stopped_ && cycles < "
    << kMaxCycles
    << "ull) {\n"
       "      sim->eval();\n"
       "      if (++cycles % "
    << kChunkCycles
    << " == 0) lap();\n"
       "    }\n"
       "    lap();\n"
       "    auto t1 = std::chrono::steady_clock::now();\n"
       "    std::printf(\"iter cycles=%llu halted=%d result=%llu instret=%llu chunks_ns=\",\n"
       "                cycles, sim->stopped_ ? 1 : 0, (unsigned long long)sim->mem_dmem[21],\n"
       "                (unsigned long long)sim->"
    << instret
    << ");\n"
       "    for (unsigned c = 0; c < chunks; c++) std::printf(c ? \",%lld\" : \"%lld\", chunk_ns[c]);\n"
       "    std::printf(\"\\n\");\n"
       "    if (std::chrono::duration<double>(t1 - start).count() >= budget) break;\n"
       "  }\n"
       "  return 0;\n}\n";
  return f.str();
}

struct Setup {
  double seconds = 0, compileS = 0, netlistS = 0, scheduleS = 0, emitS = 0, hostCompileS = 0;
  uint64_t emittedBytes = 0;
  bool ok = false;
};

// One "iter" line of the compiled simulator's output.
struct Iteration {
  unsigned long long cycles = 0, result = 0, instret = 0;
  int halted = 0;
  std::vector<double> chunkSeconds;
};

// False when `line` is not a well-formed "iter" line.
bool parseIteration(const std::string& line, Iteration& it) {
  int pos = 0;
  if (std::sscanf(line.c_str(), "iter cycles=%llu halted=%d result=%llu instret=%llu chunks_ns=%n",
                  &it.cycles, &it.halted, &it.result, &it.instret, &pos) != 4 ||
      pos == 0)
    return false;
  std::istringstream ns(line.substr(static_cast<size_t>(pos)));
  for (std::string tok; std::getline(ns, tok, ',');) {
    long long v = std::atoll(tok.c_str());
    if (v <= 0) return false;
    it.chunkSeconds.push_back(static_cast<double>(v) * 1e-9);
  }
  return !it.chunkSeconds.empty();
}

}  // namespace

Outcome runMidsocCompiled(const RunOptions& opt) {
  Outcome out;
  const designs::SoCConfig cfg = midsoc();
  const std::string text = designs::tinySoCFirrtl(cfg);
  // dhrystone has no data to perturb; the seed adds 0-7 iterations.
  const workloads::Program prog = workloads::dhrystoneProgram(
      kDhrystoneIters + static_cast<uint32_t>((opt.seed * 0x9e3779b97f4a7c15ULL) >> 61));
  const workloads::RefState ref = workloads::runReferenceModel(prog, kMaxCycles);

  support::TempDir dir("perfbench_midsoc_XXXXXX");
  const std::string bin = dir.file("sim");
  std::vector<Setup> setups;
  std::vector<Layered> layers;
  std::vector<double> tracedSetups, plainSetups;
  for (unsigned rep = 0; rep < kSetupReps; rep++) {
    // The traced run alternates traced and untraced set-ups.
    TraceToggle toggle(rep % 2 == 0);
    rotateProcessor(rep);
    hostSpeed().sample();
    Setup s;
    {
      Span top("perfbench.setup");
      Interpreted front = buildInterpreted(text, /*makeEngine=*/false);
      s.compileS = front.compileS;
      const sim::SimIR& ir = front.design->ir;
      out.exactCount("sim.ir_ops", ir.ops.size());
      ScheduleBuild sb = buildScheduleLayer(ir);
      recordSchedule(out, sb);
      s.netlistS = sb.netlistS;
      s.scheduleS = sb.scheduleS;

      Clock::time_point t0 = Clock::now();
      std::string code;
      {
        Span sp("codegen.emit");
        code = codegen::emitCpp(ir, &sb.sched, codegen::CodegenOptions{});
      }
      s.emitS = secondsSince(t0);
      s.emittedBytes = code.size();
      out.exactCount("codegen.emitted_bytes", code.size());
      const std::string src = dir.file("sim.cpp");
      std::ofstream(src) << harnessSource(code, ir, prog);

      support::RunOptions ro;
      ro.timeoutMs = kHostCompileTimeoutMs;
      t0 = Clock::now();
      support::ExecResult cc;
      {
        Span sp("codegen.host_compile");
        cc = support::runShell("c++ -std=c++20 -O2 -o " + support::shellQuote(bin) + " " +
                                   support::shellQuote(src) + " 2> " +
                                   support::shellQuote(dir.file("cc.log")),
                               ro);
      }
      s.hostCompileS = secondsSince(t0);
      s.ok = cc.ok();
      out.check(s.ok, "host compile of the generated simulator: " + cc.describe());
      s.seconds = s.compileS + s.netlistS + s.scheduleS + s.emitS + s.hostCompileS;
    }
    setups.push_back(s);
    // The host compile's noise would swamp the spans' cost; compare the
    // in-process part of the set-up only.
    (rep % 2 == 0 ? tracedSetups : plainSetups).push_back(s.seconds - s.hostCompileS);
    if (opt.trace) {
      Span sp("perfbench.layered");
      layers.push_back(buildLayered(text));
      layers.back().design.reset();
    }
  }
  restoreProcessors();
  auto med = [&](double Setup::* f) {
    std::vector<double> v;
    for (const Setup& s : setups) v.push_back(s.*f);
    return median(v);
  };
  out.e2e("setup_s", med(&Setup::seconds));
  if (opt.trace) recordLayered(out, layers);
  out.lay("core.netlist_s", med(&Setup::netlistS));
  out.lay("core.schedule_s", med(&Setup::scheduleS));
  out.lay("codegen.emit_s", med(&Setup::emitS));
  out.lay("codegen.host_compile_s", med(&Setup::hostCompileS));
  out.lay("codegen.emitted_bytes", static_cast<double>(setups.back().emittedBytes));
  out.lay("sim.ir_ops", static_cast<double>(out.exact["sim.ir_ops"]));
  std::printf("set-up: %u builds, median %.3f s (compileDesign %.4f s, emit %.4f s, %llu bytes, "
              "host compile %.3f s)\n",
              kSetupReps, med(&Setup::seconds), med(&Setup::compileS), med(&Setup::emitS),
              static_cast<unsigned long long>(setups.back().emittedBytes),
              med(&Setup::hostCompileS));
  if (opt.trace)
    out.lay("perfbench.trace_overhead_ms", (median(tracedSetups) - median(plainSetups)) * 1e3);
  if (!setups.back().ok) return out;

  // The host's speed around the compiled run, which runs in its own process.
  hostSpeed().sampleFor(kSpeedSampleS);
  // The compiled simulator times its chunks itself; the watchdog bounds the
  // whole invocation.
  const std::string outFile = dir.file("run.txt");
  support::RunOptions ro;
  ro.timeoutMs = static_cast<int64_t>(opt.seconds * 1000) + 60'000;
  char budget[32];
  std::snprintf(budget, sizeof budget, "%.3f", opt.seconds);
  support::ExecResult run;
  {
    Span sp("codegen.run");
    run = support::runShell(support::shellQuote(bin) + " " + budget + " > " +
                                support::shellQuote(outFile),
                            ro);
  }
  out.check(run.ok(), "compiled simulator run: " + run.describe());
  hostSpeed().sampleFor(kSpeedSampleS);

  std::ifstream in(outFile);
  ChunkTimes times;
  uint64_t cycles = 0, timedCycles = 0;
  double simSeconds = 0;
  size_t iters = 0;
  // The first iteration pays the process's page faults; it is checked but
  // not timed.
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("iter ", 0) != 0) continue;  // the design's own printf output
    Iteration it;
    bool parsed = parseIteration(line, it);
    bool ok = parsed && it.halted == 1 && it.result == ref.regs[1] && it.instret == ref.instret;
    out.check(ok, "compiled dhrystone: " + (parsed ? "result " + std::to_string(it.result) +
                                                         " instret " + std::to_string(it.instret)
                                                   : "unreadable line '" + line + "'") +
                      ", reference " + std::to_string(ref.regs[1]) + " / " +
                      std::to_string(ref.instret));
    if (!ok) continue;
    out.exactCount("sim_cycles", it.cycles);
    cycles = it.cycles;
    if (iters++ == 0) continue;
    times.add(0, it.chunkSeconds);
    for (double c : it.chunkSeconds) simSeconds += c;
    timedCycles += it.cycles;
  }
  out.check(times.repetitions(0) > 0, "compiled simulator printed no timed iterations");
  if (times.repetitions(0) == 0) return out;
  const double khz = static_cast<double>(cycles) / times.fastSeconds() / 1e3;
  out.e2e("sim_khz", khz);
  out.e2e("sim_cycles", static_cast<double>(cycles));
  out.lay("codegen.tick_ns", simSeconds * 1e9 / static_cast<double>(timedCycles));
  std::printf("simulation: %zu compiled iterations of %llu cycles; %.1f kHz at the chunks' fast "
              "time, %.1f kHz at the median iteration\n",
              times.repetitions(0), static_cast<unsigned long long>(cycles), khz,
              static_cast<double>(cycles) / times.medianSeconds() / 1e3);
  return out;
}

}  // namespace perfbench

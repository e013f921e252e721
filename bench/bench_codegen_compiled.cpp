// Extension bench: the full ESSENT flow — generate C++, compile it with the
// host toolchain, and run the *compiled* simulator, exactly as the paper's
// tool does (our interpreter benches keep the same schedule but skip the
// compile step). Reported: compile time, simulated kHz, and the
// compiled-CCSS vs compiled-baseline speedup, on a mid-size SoC and the
// dhrystone workload.
//
// This is where the paper's branch-hint optimization (§III-B2) becomes
// meaningful: the generated cold paths carry [[unlikely]]/__builtin_expect
// so the compiler separates them from the hot instruction working set; the
// hints row quantifies the effect.
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_util.h"
#include "codegen/emitter.h"
#include "core/netlist.h"
#include "support/strutil.h"
#include "support/subprocess.h"
#include "support/tempdir.h"

using namespace essent;

namespace {

// Watchdog budgets: the host compile of the mid-size SoC takes seconds and
// the compiled run about one; a wedged process fails its case instead of
// hanging the bench.
constexpr int64_t kCompileTimeoutMs = 300'000;
constexpr int64_t kRunTimeoutMs = 120'000;

struct CompiledRun {
  bool ok = false;
  double compileSeconds = 0;
  double runSeconds = 0;
  uint64_t cycles = 0;
  std::string detail;
};

// Compiles and runs the simulator; ok only when the run halts with the
// reference model's result.
CompiledRun compileAndTime(const std::string& code, const workloads::Program& prog,
                           const workloads::RefState& ref, uint64_t maxCycles) {
  CompiledRun res;
  // RAII scratch dir: removed on every return path (compile failure, run
  // failure, success) — matching essentc --compile-run and the fuzz oracle.
  std::optional<support::TempDir> dirGuard;
  try {
    dirGuard.emplace("essent_bench_XXXXXX");
  } catch (const std::exception& e) {
    res.detail = e.what();
    return res;
  }
  std::string src = dirGuard->file("sim.cpp");
  {
    std::ofstream f(src);
    f << code;
    f << "#include <chrono>\n";
    f << "static const unsigned short prog_code[] = {";
    for (size_t i = 0; i < prog.code.size(); i++) f << (i ? "," : "") << prog.code[i];
    f << "};\n";
    f << "static const unsigned short prog_data[][2] = {{0,0}";
    for (auto [a, v] : prog.data) f << ",{" << a << "," << v << "}";
    f << "};\n";
    f << "int main() {\n"
         "  essent_gen::Simulator sim;\n"
         "  for (unsigned i = 0; i < sizeof(prog_code)/2; i++) sim.mem_imem[i] = prog_code[i];\n"
         "  for (auto& dv : prog_data) sim.mem_dmem[dv[0]] = dv[1];\n"
         "  sim.reset = 1; sim.eval(); sim.eval(); sim.reset = 0;\n"
         "  auto t0 = std::chrono::steady_clock::now();\n"
         "  unsigned long long cycles = 0;\n";
    f << "  while (!sim.stopped_ && cycles < " << maxCycles << "ull) { sim.eval(); cycles++; }\n";
    f << "  auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);\n"
         "  std::printf(\"cycles=%llu seconds=%.6f result=%llu halted=%d\\n\", cycles,\n"
         "              dt.count(), (unsigned long long)sim.mem_dmem[21], sim.stopped_ ? 1 : 0);\n"
         "  return 0;\n}\n";
  }
  std::string bin = dirGuard->file("sim");
  support::RunOptions ro;
  ro.timeoutMs = kCompileTimeoutMs;
  auto c0 = std::chrono::steady_clock::now();
  support::ExecResult cc = support::runShell(
      "c++ -std=c++20 -O2 -o " + support::shellQuote(bin) + " " + support::shellQuote(src) +
          " 2> " + support::shellQuote(dirGuard->file("cc.log")),
      ro);
  if (!cc.ok()) {
    // Keep the scratch dir so the referenced log survives for inspection.
    res.detail = "compile " + cc.describe() + " (see " + dirGuard->keep() + "/cc.log)";
    return res;
  }
  res.compileSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c0).count();
  std::string outFile = dirGuard->file("out.txt");
  ro.timeoutMs = kRunTimeoutMs;
  support::ExecResult run =
      support::runShell(support::shellQuote(bin) + " > " + support::shellQuote(outFile), ro);
  if (!run.ok()) {
    res.detail = "run " + run.describe();
    return res;
  }
  std::ifstream out(outFile);
  // The simulated design printfs (e.g. the halt banner) precede the stats
  // line; find the line starting with "cycles=".
  std::string line, candidate;
  while (std::getline(out, candidate))
    if (candidate.rfind("cycles=", 0) == 0) line = candidate;
  // parse "cycles=N seconds=S result=R halted=H"
  unsigned long long cyc = 0, result = 0;
  double sec = 0;
  int halted = 0;
  if (std::sscanf(line.c_str(), "cycles=%llu seconds=%lf result=%llu halted=%d", &cyc, &sec,
                  &result, &halted) != 4) {
    res.detail = "unparseable output: " + line;
    return res;
  }
  res.cycles = cyc;
  res.runSeconds = sec;
  res.detail = essent::strfmt("result=%llu halted=%d, reference %u", result, halted,
                              static_cast<unsigned>(ref.regs[1]));
  res.ok = halted == 1 && result == ref.regs[1];
  return res;
}

}  // namespace

int main() {
  designs::SoCConfig cfg = designs::socTiny();
  cfg.name = "midsoc";
  cfg.numAccels = 8;
  cfg.accelLanes = 32;
  cfg.dmemDepth = 1024;
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(cfg));
  // Long enough (~330k cycles) that the compiled runs are not timer noise.
  auto prog = workloads::dhrystoneProgram(16384);
  constexpr uint64_t kMaxCycles = 500000;
  const workloads::RefState ref = workloads::runReferenceModel(prog, kMaxCycles);

  core::Netlist nl = core::Netlist::build(ir);
  core::CondPartSchedule sched = core::buildSchedule(nl, core::ScheduleOptions{});

  std::printf("Compiled-flow bench (%s: %zu IR ops, %zu partitions; dhrystone)\n",
              cfg.name.c_str(), ir.ops.size(), sched.numPartitions());
  std::printf("%-26s %12s %10s %12s\n", "configuration", "compile(s)", "run(s)", "sim kHz");
  bench::printRule(66);

  struct Case {
    const char* name;
    bool ccss;
    bool hints;
    bool muxShadow;
  };
  const Case cases[] = {
      {"compiled baseline", false, true, true},
      {"compiled CCSS", true, true, true},
      {"compiled CCSS, no hints", true, false, true},
      {"compiled CCSS, no mux-way", true, true, false},
  };
  double baselineRun = 0, ccssRun = 0;
  int failures = 0;
  for (const auto& c : cases) {
    codegen::CodegenOptions opts;
    opts.ccss = c.ccss;
    opts.branchHints = c.hints;
    opts.muxShadow = c.muxShadow;
    std::string code = codegen::emitCpp(ir, c.ccss ? &sched : nullptr, opts);
    auto r = compileAndTime(code, prog, ref, kMaxCycles);
    if (!r.ok) {
      std::printf("%-26s FAILED: %s\n", c.name, r.detail.c_str());
      failures++;
      continue;
    }
    std::printf("%-26s %12.2f %10.4f %12.1f\n", c.name, r.compileSeconds, r.runSeconds,
                static_cast<double>(r.cycles) / r.runSeconds / 1e3);
    if (!c.ccss) baselineRun = r.runSeconds;
    else if (c.hints) ccssRun = r.runSeconds;
    std::fflush(stdout);
  }

  // Interpreter reference for scale.
  {
    auto eng = bench::makeActivityEngine(ir, sched);
    auto r = bench::timeEngine(*eng, prog);
    std::printf("%-26s %12s %10.4f %12.1f\n", "interpreted CCSS", "-", r.seconds,
                static_cast<double>(r.cycles) / r.seconds / 1e3);
  }
  if (baselineRun > 0 && ccssRun > 0)
    std::printf("\ncompiled CCSS speedup over compiled baseline: %.2fx\n",
                baselineRun / ccssRun);
  return failures ? 1 : 0;
}

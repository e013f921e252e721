// Reproduces Table III: execution times of the four simulators over every
// design x workload, plus ESSENT's speedup over Baseline.
//
// Paper reference (seconds; speedup = Baseline / ESSENT):
//   r16  dhrystone  CommVer 37.13  Verilator  3.68  Baseline   4.63  ESSENT  1.40  (3.31x)
//   r16  matmul             54.21             5.17             7.12          1.85  (3.84x)
//   r16  pchase            457.87            52.90            78.75         20.60  (3.82x)
//   r18  dhrystone          46.21            40.97            26.71          4.01  (6.65x)
//   r18  matmul             71.71            65.77            43.96          5.70  (7.71x)
//   r18  pchase            831.26           743.03           485.51         69.87  (6.95x)
//   boom dhrystone         381.32            76.29           111.04         50.44  (2.20x)
//   boom matmul            431.67           109.70           161.17         59.85  (2.69x)
//   boom pchase           5529.25          1650.41          2534.32        746.69  (3.39x)
//
// Substitutions (see DESIGN.md): CommVer* is our level-ordered event-driven
// engine, Verilator* the optimized full-cycle engine, Baseline the same
// full-cycle engine on the unoptimized IR, ESSENT the CCSS activity engine.
// Absolute times are not comparable (interpreted substrate, scaled-down
// workloads); the reproduced shape is ESSENT's speedup over Baseline /
// Verilator*. Note on CommVer*: a level-ordered compiled event-driven engine is
// far leaner than a commercial interpreted simulator, so unlike the paper
// it is not the slowest column here — EXPERIMENTS.md discusses this.
#include "bench_util.h"

using namespace essent;

int main(int argc, char** argv) {
  bench::JsonReporter report("table3_speedup", argc, argv);
  std::printf("Table III — execution times (seconds) and ESSENT speedups\n");
  std::printf("%-6s %-10s %9s %10s %9s %8s %9s %9s %7s\n", "design", "workload", "CommVer*",
              "Verilator*", "Baseline", "ESSENT", "vs-Base", "vs-Veri", "effAct");
  bench::printRule(92);
  for (const auto& cfg : bench::evalDesigns()) {
    auto d = bench::buildDesign(cfg);
    for (const auto& prog : bench::evalWorkloads()) {
      sim::EventDrivenEngine commver(sim::CompiledDesign::compile(d.optimized));
      sim::FullCycleEngine verilator(sim::CompiledDesign::compile(d.optimized));
      sim::FullCycleEngine baseline(sim::CompiledDesign::compile(d.baseline));
      auto essentEng = bench::makeActivityEngine(d.optimized, core::ScheduleOptions{});

      auto rCv = bench::timeEngine(commver, prog);
      auto rVl = bench::timeEngine(verilator, prog);
      auto rBl = bench::timeEngine(baseline, prog);
      auto rEs = bench::timeEngine(*essentEng, prog);

      bool agree = rCv.result == rEs.result && rVl.result == rEs.result &&
                   rBl.result == rEs.result && rCv.cycles == rEs.cycles;
      std::printf("%-6s %-10s %9.3f %10.3f %9.3f %8.3f %8.2fx %8.2fx %7.3f%s\n",
                  d.name.c_str(), prog.name.c_str(), rCv.seconds, rVl.seconds, rBl.seconds,
                  rEs.seconds, rBl.seconds / rEs.seconds, rVl.seconds / rEs.seconds,
                  essentEng->effectiveActivity(), agree ? "" : "  [ENGINE MISMATCH!]");
      std::fflush(stdout);
      struct { const char* sim; const bench::EngineRun* run; } cols[] = {
          {"commver", &rCv}, {"verilator", &rVl}, {"baseline", &rBl}, {"essent", &rEs}};
      for (const auto& col : cols) {
        obs::Json row = bench::JsonReporter::engineRow(d.name, prog.name, col.sim,
                                                       col.run->seconds, col.run->stats);
        row["cycles"] = col.run->cycles;
        if (col.run == &rEs) {
          row["speedup_vs_baseline"] = rBl.seconds / rEs.seconds;
          row["speedup_vs_verilator"] = rVl.seconds / rEs.seconds;
          row["effective_activity"] = essentEng->effectiveActivity();
        }
        report.addRow(std::move(row));
      }
    }
  }
  std::printf("\npaper speedups over Baseline: r16 3.3-3.8x, r18 6.7-7.7x (branch hints), "
              "boom 2.2-3.4x\n");
  return 0;
}

// Reproduces Figure 7: the decomposition of simulation work into base work,
// static overhead, and dynamic overhead as the partitioning parameter C_p
// varies (r16 executing dhrystone, as in the paper).
//
// Paper finding: increasing C_p (fewer, larger partitions)
//   * monotonically decreases the static overhead (per-cycle activity
//     checks are proportional to the number of partitions),
//   * leaves the dynamic overhead roughly constant (larger partitions cut
//     fewer edges but test them more often),
//   * increases the effective activity factor (coarser skipping),
// and the best total sits at a moderately aggressive C_p.
//
// The paper measured host instructions; we report the engine's own work
// counters per cycle, which decompose identically:
//   base     = ops evaluated (effective activity x design size)
//   static   = partition active-flag checks
//   dynamic  = output comparisons + consumer trigger writes
#include "bench_util.h"

using namespace essent;

int main(int argc, char** argv) {
  bench::JsonReporter report("fig7_overheads", argc, argv);
  auto d = bench::buildDesign(designs::socR16());
  auto prog = workloads::dhrystoneProgram(128);
  core::Netlist nl = core::Netlist::build(d.optimized);

  std::printf("Figure 7 — per-cycle work decomposition vs C_p (%s, %s)\n", d.name.c_str(),
              prog.name.c_str());
  std::printf("%6s %10s %12s %12s %12s %12s %9s %9s\n", "C_p", "parts", "base/cyc",
              "static/cyc", "dynamic/cyc", "total/cyc", "effAct", "time(s)");
  bench::printRule(92);

  for (uint32_t cp : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    core::PartitionOptions po;
    po.smallThreshold = cp;
    auto sched = core::buildScheduleFrom(nl, core::partitionNetlist(nl, po), true);
    auto eng = bench::makeActivityEngine(d.optimized, sched);
    auto r = bench::timeEngine(*eng, prog);
    double effAct = eng->effectiveActivity();
    const auto& st = r.stats;
    double cyc = static_cast<double>(st.cycles);
    double base = static_cast<double>(st.opsEvaluated) / cyc;
    double stat = static_cast<double>(st.partitionChecks) / cyc;
    double dyn = static_cast<double>(st.outputComparisons + st.triggerSets) / cyc;
    std::printf("%6u %10zu %12.0f %12.0f %12.0f %12.0f %9.4f %9.3f\n", cp,
                sched.numPartitions(), base, stat, dyn, base + stat + dyn,
                effAct, r.seconds);
    std::fflush(stdout);
    obs::Json row = bench::JsonReporter::engineRow(d.name, prog.name, "essent", r.seconds, st);
    row["cp"] = cp;
    row["partitions"] = sched.numPartitions();
    row["base_per_cycle"] = base;
    row["static_per_cycle"] = stat;
    row["dynamic_per_cycle"] = dyn;
    row["effective_activity"] = effAct;
    report.addRow(std::move(row));
  }
  std::printf("\npaper finding reproduced if: static falls monotonically with C_p,\n"
              "dynamic stays roughly flat, effAct rises, and total work (and time)\n"
              "bottoms out at a moderate C_p.\n");
  return 0;
}

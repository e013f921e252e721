// Reproduces Figure 6: simulator execution time as a function of the
// partitioning parameter C_p, across designs and workloads.
//
// Paper finding: the best C_p is mostly insensitive to the design and
// workload — a broad optimum around C_p = 8 — which is what makes the
// parameter host-tunable rather than design-tunable.
#include "bench_util.h"

using namespace essent;

int main(int argc, char** argv) {
  bench::JsonReporter report("fig6_cp_sweep", argc, argv);
  const uint32_t cps[] = {1, 2, 4, 8, 16, 32, 64, 128};
  std::printf("Figure 6 — execution time (s) vs partitioning parameter C_p\n");
  std::printf("%-6s %-10s", "design", "workload");
  for (uint32_t cp : cps) std::printf("  cp=%-5u", cp);
  std::printf(" best\n");
  bench::printRule(100);

  for (const auto& cfg : bench::evalDesigns()) {
    auto d = bench::buildDesign(cfg);
    core::Netlist nl = core::Netlist::build(d.optimized);
    // Partition once per C_p, reuse across workloads.
    std::vector<core::CondPartSchedule> schedules;
    for (uint32_t cp : cps) {
      core::PartitionOptions po;
      po.smallThreshold = cp;
      schedules.push_back(
          core::buildScheduleFrom(nl, core::partitionNetlist(nl, po), true));
    }
    for (const auto& prog : bench::evalWorkloads()) {
      std::printf("%-6s %-10s", d.name.c_str(), prog.name.c_str());
      double best = 1e30;
      uint32_t bestCp = 0;
      for (size_t i = 0; i < schedules.size(); i++) {
        auto eng = bench::makeActivityEngine(d.optimized, schedules[i]);
        auto r = bench::timeEngine(*eng, prog);
        std::printf(" %8.3f", r.seconds);
        if (r.seconds < best) {
          best = r.seconds;
          bestCp = cps[i];
        }
        std::fflush(stdout);
        obs::Json row =
            bench::JsonReporter::engineRow(d.name, prog.name, "essent", r.seconds, r.stats);
        row["cp"] = cps[i];
        row["partitions"] = schedules[i].numPartitions();
        report.addRow(std::move(row));
      }
      std::printf("  cp=%u\n", bestCp);
    }
  }
  std::printf("\npaper finding reproduced if: a broad optimum appears at a similar C_p\n"
              "across all design/workload rows (paper selects C_p = 8).\n");
  return 0;
}

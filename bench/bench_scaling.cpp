// Extension exhibit: how the tool flow scales with design size — frontend
// and partitioner wall time, partition counts, and per-cycle simulation
// cost of full-cycle vs CCSS in the idle and busy regimes — over the
// regular systolic-array family. (The paper reports only the three fixed
// processor designs; this sweep makes the partitioner's near-linear
// behaviour and CCSS's size-independent idle cost visible.)
#include <chrono>

#include "bench_util.h"
#include "core/netlist.h"
#include "core/partitioner.h"
#include "designs/systolic.h"
#include "support/strutil.h"

using namespace essent;

namespace {

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  std::printf("Scaling sweep — systolic arrays (extension; not a paper exhibit)\n");
  std::printf("%6s %8s %8s %10s %10s %12s %12s %12s\n", "grid", "nodes", "parts", "build(s)",
              "part(s)", "full us/cyc", "ccss-busy", "ccss-idle");
  bench::printRule(88);

  for (uint32_t n : {4u, 8u, 16u, 24u}) {
    designs::SystolicConfig cfg;
    cfg.rows = n;
    cfg.cols = n;

    auto t0 = std::chrono::steady_clock::now();
    sim::SimIR ir = sim::buildFromFirrtl(designs::systolicFirrtl(cfg));
    double buildS = seconds(t0);

    t0 = std::chrono::steady_clock::now();
    core::Netlist nl = core::Netlist::build(ir);
    core::Partitioning p = core::partitionNetlist(nl, core::PartitionOptions{});
    double partS = seconds(t0);

    auto perCycle = [&](sim::Engine& e, bool busy, int cycles) {
      e.poke("reset", 0);
      e.poke("en", busy);
      e.poke("a0", 1);
      e.tick();  // settle
      auto s0 = std::chrono::steady_clock::now();
      for (int c = 0; c < cycles; c++) {
        if (busy) e.poke("a0", static_cast<uint64_t>(c + 2));
        e.tick();
      }
      return seconds(s0) / cycles * 1e6;
    };

    sim::FullCycleEngine fc(sim::CompiledDesign::compile(ir));
    auto busyEng = bench::makeActivityEngine(ir, core::ScheduleOptions{});
    auto idleEng = bench::makeActivityEngine(ir, core::ScheduleOptions{});
    double fullUs = perCycle(fc, true, 3000);
    double busyUs = perCycle(*busyEng, true, 3000);
    double idleUs = perCycle(*idleEng, false, 3000);

    std::printf("%3ux%-3u %8d %8zu %10.3f %10.3f %12.2f %12.2f %12.2f\n", n, n,
                nl.g.numNodes(), p.numPartitions(), buildS, partS, fullUs, busyUs, idleUs);
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: full-cycle cost grows with the grid; CCSS busy cost grows\n"
              "with the *active* region (one column wavefront); CCSS idle cost grows only\n"
              "with the partition count (static overhead floor).\n");
  return 0;
}

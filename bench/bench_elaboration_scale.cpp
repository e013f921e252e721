// Elaboration-scale exhibit (extension; not a paper table): per-phase
// wall-clock of the compile pipeline — FIRRTL parse/lower, IR build,
// netlist construction, MFFC decomposition, the three merge phases, and
// schedule build — across TinySoC --scale factors, from the ~130k-node
// scaled1 preset up to the >1M-node scaled8 preset.
//
// The point of the artifact is the SHAPE, not the absolute seconds: every
// phase must scale near-linearly in netlist nodes (the merge phases were
// quadratic before the incremental-topo-order partitioner rework), and
// peak RSS must stay within the pooled-arena budget. The committed
// baseline in bench/artifacts/ is gated by scripts/check_elaboration_scale.py,
// which checks both per-phase regressions on common rows and the
// intra-artifact scaling exponent between the smallest and largest scale.
//
// Scales run ascending, and peak_rss_bytes is the process high-water mark
// (getrusage), so a row's RSS is an upper bound dominated by the largest
// scale elaborated so far; the final (largest) row is the meaningful
// ceiling. Honors ESSENT_BENCH_REPS / --reps (per-scale best-of-reps) and
// --max-scale N (skip factors above N — CI uses this to keep the gate
// cheap). Emits BENCH_elaboration_scale.json.
#include <chrono>
#include <cstring>
#include <map>

#include "bench_util.h"
#include "core/schedule.h"
#include "designs/tinysoc.h"
#include "obs/metrics.h"
#include "sim/compile.h"
#include "support/meminfo.h"

using namespace essent;

namespace {

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Elaborated {
  double total = 0;
  obs::Json phases;      // phase name -> {seconds, calls}
  size_t irOps = 0;
  int64_t nodes = 0;
  int64_t edges = 0;
  size_t partitions = 0;
};

struct PhaseTotal {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

// Phase name -> totals recorded so far by the global registry's
// phase.<name>_ns histograms. The registry is never cleared (SimFarm and
// serve::Server hold references into it), so one elaboration's phases are
// the difference of two of these.
std::map<std::string, PhaseTotal> phaseTotals() {
  const std::string prefix = "phase.", suffix = "_ns";
  std::map<std::string, PhaseTotal> out;
  const obs::Json doc = obs::MetricsRegistry::global().toJson();
  if (const obs::Json* hists = doc.find("histograms"))
    for (const auto& [name, h] : hists->members())
      if (name.size() > prefix.size() + suffix.size() && name.starts_with(prefix) &&
          name.ends_with(suffix))
        out[name.substr(prefix.size(), name.size() - prefix.size() - suffix.size())] = {
            h.at("count").asUInt(), h.at("sum").asUInt()};
  return out;
}

// One full text->schedule elaboration, with the phases it ran.
Elaborated elaborateOnce(const std::string& text) {
  const std::map<std::string, PhaseTotal> before = phaseTotals();
  Elaborated r;
  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const sim::CompiledDesign> design = sim::compileDesign(text);
  core::Netlist net = core::Netlist::build(design->ir);
  core::CondPartSchedule sched = core::buildSchedule(net);
  r.total = seconds(t0);
  r.irOps = design->ir.ops.size();
  r.nodes = static_cast<int64_t>(net.nodes.size());
  r.edges = net.g.numEdges();
  r.partitions = sched.parts.size();
  r.phases = obs::Json::object();
  for (const auto& [phase, after] : phaseTotals()) {
    const auto it = before.find(phase);
    const PhaseTotal b = it == before.end() ? PhaseTotal{} : it->second;
    if (after.calls == b.calls) continue;
    obs::Json t = obs::Json::object();
    t["seconds"] = static_cast<double>(after.ns - b.ns) / 1e9;
    t["calls"] = after.calls - b.calls;
    r.phases[phase] = std::move(t);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report("elaboration_scale", argc, argv);
  uint32_t maxScale = 8;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--max-scale=", 12) == 0)
      maxScale = static_cast<uint32_t>(std::strtoul(argv[i] + 12, nullptr, 0));
    else if (std::strcmp(argv[i], "--max-scale") == 0 && i + 1 < argc)
      maxScale = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 0));
  }

  std::printf("Elaboration scale — compile-pipeline phases vs TinySoC --scale\n");
  std::printf("reps=%u  max-scale=%u\n", report.env().reps, maxScale);
  std::printf("%-10s %9s %9s %9s %7s %9s %10s\n", "design", "ir_ops", "nodes", "edges",
              "parts", "total_s", "rss_mb");
  bench::printRule(70);

  for (uint32_t scale : {1u, 4u, 8u}) {
    if (scale > maxScale) continue;
    designs::SoCConfig cfg = designs::socScaled(scale);
    std::string text = designs::tinySoCFirrtl(cfg);

    // Best-of-reps is applied PER PHASE, not per elaboration: the small
    // scales have sub-10ms phases where one cold-cache rep would otherwise
    // dominate the committed ratio between scales.
    Elaborated best;
    for (uint32_t rep = 0; rep < report.env().reps; rep++) {
      Elaborated r = elaborateOnce(text);
      if (rep == 0) {
        best = std::move(r);
        continue;
      }
      best.total = std::min(best.total, r.total);
      for (const auto& [phase, timer] : best.phases.members()) {
        (void)timer;
        const obs::Json* fresh = r.phases.find(phase);
        if (!fresh) continue;
        const obs::Json* freshSecs = fresh->find("seconds");
        const obs::Json* bestSecs = best.phases.at(phase).find("seconds");
        if (freshSecs && bestSecs && freshSecs->asDouble() < bestSecs->asDouble())
          best.phases[phase]["seconds"] = freshSecs->asDouble();
      }
    }
    const uint64_t rss = support::peakRssBytes();

    std::printf("%-10s %9zu %9lld %9lld %7zu %9.3f %10.1f\n", cfg.name.c_str(), best.irOps,
                static_cast<long long>(best.nodes), static_cast<long long>(best.edges),
                best.partitions, best.total, static_cast<double>(rss) / (1024.0 * 1024.0));

    obs::Json row = obs::Json::object();
    row["design"] = cfg.name;
    row["scale"] = scale;
    row["ir_ops"] = best.irOps;
    row["nodes"] = best.nodes;
    row["edges"] = best.edges;
    row["partitions"] = best.partitions;
    row["seconds"] = best.total;
    row["phases"] = std::move(best.phases);
    row["peak_rss_bytes"] = rss;
    report.addRow(std::move(row));
  }
  return 0;
}

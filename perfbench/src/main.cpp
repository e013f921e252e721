// perfbench: the repository benchmark binary. Runs one workload for a
// seed, checks every simulated result against an independent reference,
// and prints the metrics as the last line of stdout:
//
//   perfbench --workload boom-lowact --seed 1 --seconds 10 --trace 0 --out-dir .bench_build
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// spans are recorded around each layer call, the per-layer metrics are
// printed instead, and the spans are written to <out-dir>/traces/.
// perfbench/README.md documents every metric and workload.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "perfbench.h"
#include "support/meminfo.h"

namespace {

using namespace perfbench;

constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 20261017;  // for confirming claims only

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_khz", "kcycles/s"},
    {"sim_cycles", "cycles"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"firrtl.parse_s", "s"},
    {"firrtl.lower_s", "s"},
    {"sim.build_ir_s", "s"},
    {"sim.seal_s", "s"},
    {"sim.ir_ops", "count"},
    {"core.netlist_s", "s"},
    {"core.schedule_s", "s"},
    {"core.partitions", "count"},
    {"core.cut_edges", "count"},
    {"core.elided_regs", "count"},
    {"core.engine_init_s", "s"},
    {"core.tick_ns", "ns"},
    {"core.checks_per_cycle", "count"},
    {"core.ops_per_cycle", "count"},
    {"core.ns_per_op", "ns"},
    {"core.compares_per_cycle", "count"},
    {"core.trigger_sets_per_cycle", "count"},
    {"core.effective_activity", "ratio"},
    {"codegen.emit_s", "s"},
    {"codegen.emitted_bytes", "bytes"},
    {"codegen.host_compile_s", "s"},
    {"codegen.tick_ns", "ns"},
    {"serve.req_p50_ms", "ms"},
    {"serve.req_p99_ms", "ms"},
    {"serve.req_per_s", "req/s"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p99", "ms"},
    {"serve.compile_ms_p50", "ms"},
    {"serve.compile_ms_p99", "ms"},
    {"serve.batch_ms_p50", "ms"},
    {"serve.batch_ms_p99", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_depth_peak", "count"},
    {"serve.shed", "count"},
    {"firrtl.self_s", "s"},
    {"sim.self_s", "s"},
    {"core.self_s", "s"},
    {"codegen.self_s", "s"},
    {"serve.self_s", "s"},
    {"perfbench.self_s", "s"},
    {"perfbench.host_speed", "ratio"},
    {"perfbench.trace_overhead_ms", "ms"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "boom-lowact|systolic-dense|midsoc-compiled|essentd-mix [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n"
               "default seed %llu; held-out seed %llu\n",
               msg, static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  return 2;
}

std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

// Identifies this binary, so exact counts recorded by one build are never
// compared against another build's.
uint64_t exeHash() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (f) {
    f.read(buf, sizeof buf);
    for (std::streamsize i = 0; i < f.gcount(); i++) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// The exact-count self-check, one checked operation: every exact count must
// have repeated within the run, and must equal the counts an earlier run of
// this binary recorded for the same workload and seed.
void exactCountSelfCheck(Outcome& out, const RunOptions& opt) {
  std::string dir = opt.outDir + "/counts";
  ::mkdir(dir.c_str(), 0755);
  char name[128];
  std::snprintf(name, sizeof name, "/%s-seed%llu-%016llx.json", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(exeHash()));
  std::string path = dir + name;
  essent::obs::Json now = essent::obs::Json::object();
  for (const auto& [k, v] : out.exact) now[k] = v;
  std::ifstream prev(path);
  if (prev) {
    std::stringstream ss;
    ss << prev.rdbuf();
    essent::obs::Json before = essent::obs::Json::parse(ss.str());
    for (const auto& [k, v] : out.exact) {
      const essent::obs::Json* b = before.find(k);
      if (!b || b->asUInt() != v)
        out.exactMismatches.push_back(k + " differs from an earlier run with this seed");
    }
    std::printf("exact-count self-check: %zu counts compared with %s\n", out.exact.size(),
                path.c_str());
  } else {
    essent::obs::writeJsonFile(path, now);
    std::printf("exact-count self-check: %zu counts recorded in %s\n", out.exact.size(),
                path.c_str());
  }
  for (const std::string& m : out.exactMismatches) out.failures.push_back("exact count " + m);
  out.check(out.exactMismatches.empty(), "exact-count self-check");
}

void addSelfTimes(Outcome& out) {
  std::map<std::string, double> byLayer;
  for (const auto& [span, s] : tracer().selfSeconds())
    byLayer[span.substr(0, span.find('.'))] += s;
  std::printf("self time by layer (traced spans):\n");
  for (const auto& [layer, s] : byLayer) std::printf("  %-10s %10.4f s\n", layer.c_str(), s);
  for (const char* layer : {"firrtl", "sim", "core", "codegen", "serve", "perfbench"})
    out.lay(std::string(layer) + ".self_s", byLayer[layer]);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to report from a sanitizer build\n");
  return 3;
#endif
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from a build with assertions on\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build (Release required)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  RunOptions opt;
  opt.seed = kDefaultSeed;
  opt.outDir = ".bench_build";
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") opt.outDir = v;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) return usage("--seconds must be in (0, 600]");

  std::function<Outcome(const RunOptions&)> run;
  if (opt.workload == "boom-lowact") run = runBoomLowact;
  else if (opt.workload == "systolic-dense") run = runSystolicDense;
  else if (opt.workload == "midsoc-compiled") run = runMidsocCompiled;
  else if (opt.workload == "essentd-mix") run = runEssentdMix;
  else return usage(("unknown workload '" + opt.workload + "'").c_str());
  ::mkdir(opt.outDir.c_str(), 0755);

  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s compiler=\"%s\" "
              "cpu=\"%s\"\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_ID, cpuModel().c_str());

  tracer().setEnabled(opt.trace);
  Outcome out;
  try {
    out = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", e.what());
    return 1;
  }
  tracer().setEnabled(false);
  out.e2e("peak_rss_mb", static_cast<double>(essent::support::peakRssBytes()) / 1e6);

  // End-to-end host times at the host's reference speed (README.md, "Host
  // noise"); the figures as measured are printed beside them.
  const double speed = hostSpeed().speed();
  out.lay("perfbench.host_speed", speed);
  auto setup = out.endToEnd.find("setup_s");
  auto khz = out.endToEnd.find("sim_khz");
  std::printf("host speed: %.4f of the reference speed (%zu samples); as measured: setup_s "
              "%.6f s, sim_khz %.4f kcycles/s\n",
              speed, hostSpeed().samples(), setup == out.endToEnd.end() ? 0.0 : setup->second,
              khz == out.endToEnd.end() ? 0.0 : khz->second);
  if (setup != out.endToEnd.end()) setup->second *= speed;
  if (khz != out.endToEnd.end()) khz->second /= speed;
  exactCountSelfCheck(out, opt);

  if (opt.trace) {
    addSelfTimes(out);
    std::string dir = opt.outDir + "/traces";
    ::mkdir(dir.c_str(), 0755);
    std::string path = dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
    tracer().write(path);
    std::printf("trace: %zu spans written to %s\n", tracer().spans().size(), path.c_str());
  }

  // Every metric a workload reports must be a finite number under a listed
  // name; a misspelt name would otherwise read 0 unnoticed.
  auto listed = [](const std::string& name, const auto& specs) {
    for (const MetricSpec& m : specs)
      if (name == m.name) return true;
    return false;
  };
  bool wellFormed = true;
  for (const auto& [name, v] : out.endToEnd)
    wellFormed &= std::isfinite(v) && listed(name, kEndToEnd);
  for (const auto& [name, v] : out.layer)
    wellFormed &= std::isfinite(v) && listed(name, kPerLayer);
  out.check(wellFormed, "every metric is a finite number under a listed name");
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  std::printf("checked: %llu operations, %llu failed (fail_frac %.6f)\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                            : 1.0);

  // Every listed metric is printed; a per-layer metric of a layer this
  // workload never calls reads 0.
  std::string metrics;
  auto emit = [&](const MetricSpec& spec, const std::map<std::string, double>& got) {
    auto it = got.find(spec.name);
    double v = it == got.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;  // already a failed check; keep the line valid JSON
    std::printf("metric %-30s %16.6f %s\n", spec.name, v, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
               spec.unit + "\"}";
  };
  if (opt.trace)
    for (const MetricSpec& m : kPerLayer) emit(m, out.layer);
  else
    for (const MetricSpec& m : kEndToEnd) emit(m, out.endToEnd);

  bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}

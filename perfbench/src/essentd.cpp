// essentd-mix: an in-process serve::Server on a unix socket under a closed
// loop — each client thread sends its next request only after the previous
// response is parsed. Three request types run side by side:
//   * run by design_hash on a cached mid-size design (reads);
//   * run with batch > 0, which goes through core::SimFarm;
//   * compile of seeded distinct designs (cold writes that fill and evict
//     the cache).
// It is the only workload that measures serve and the farm. Every response
// is checked against an in-process solo run or compile of the same input.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "designs/systolic.h"
#include "obs/json.h"
#include "perfbench.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/rng.h"
#include "support/socket.h"
#include "support/strutil.h"

namespace perfbench {

using namespace essent;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kServerWorkers = 2;  // clients + workers stay within 4 cores
constexpr size_t kCacheCapacity = 8;
constexpr uint32_t kRunDim = 8;          // the cached design: 8x8 systolic array
constexpr uint64_t kRunCycles = 2000;
constexpr uint32_t kBatch = 4;
constexpr uint64_t kBatchCycles = 500;
constexpr unsigned kPokeSets = 16;
constexpr unsigned kColdDesigns = 24;    // > kCacheCapacity, so every compile misses
constexpr uint32_t kColdDim = 6;
constexpr unsigned kSetupReps = 25;
constexpr double kSpeedSampleS = 0.5;  // host-speed samples after the loop
constexpr int kRotateMs = 100;         // threads move to the next processor this often
// Request schedule of each client, repeated: five cached runs, two batch
// runs, one cold compile.
enum class Kind { Run, Batch, Compile };
constexpr Kind kPattern[] = {Kind::Run, Kind::Run,   Kind::Batch, Kind::Run,
                             Kind::Run, Kind::Batch, Kind::Run,   Kind::Compile};
constexpr size_t kPatternLen = sizeof kPattern / sizeof kPattern[0];

std::string systolicText(uint32_t dim, uint32_t width) {
  designs::SystolicConfig cfg;
  cfg.rows = cfg.cols = dim;
  cfg.dataWidth = width;
  return designs::systolicFirrtl(cfg);
}

struct Reply {
  obs::Json doc;
  bool ok = false;
  std::string error;
};

Reply request(const std::string& sock, const std::string& payload, uint64_t reqId) {
  Reply r;
  try {
    support::Socket conn;
    {
      Span s("serve.connect", reqId);
      conn = support::connectUnix(sock);
    }
    std::string body;
    support::FrameStatus st;
    {
      Span s("serve.exchange", reqId);
      // Read even when the write fails: a shed reply can race the write.
      (void)support::writeFrame(conn.fd(), payload);
      st = support::readFrame(conn.fd(), body, 64u << 20, 60'000);
    }
    if (st != support::FrameStatus::Ok) {
      r.error = std::string("frame: ") + support::frameStatusName(st);
      return r;
    }
    Span s("serve.decode", reqId);
    r.doc = obs::Json::parse(body);
    auto env = serve::parseResponseEnvelope(r.doc);
    r.ok = env && env->ok;
    if (env && !env->ok) r.error = env->errorCode + " " + env->errorMessage;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

obs::Json base(const char* op) {
  obs::Json req = obs::Json::object();
  req["proto"] = uint64_t{serve::kProtoMax};
  req["op"] = op;
  return req;
}

std::string compilePayload(const std::string& text) {
  obs::Json req = base("compile");
  req["design"] = text;
  return req.dump(0);
}

std::string runPayload(const std::string& hash, uint64_t cycles, uint32_t batch,
                       const std::vector<std::pair<std::string, uint64_t>>& pokes) {
  obs::Json req = base("run");
  req["design_hash"] = hash;
  req["cycles"] = cycles;
  if (batch) req["batch"] = uint64_t{batch};
  obs::Json p = obs::Json::object();
  for (const auto& [name, v] : pokes) p[name] = v;
  req["pokes"] = std::move(p);
  return req.dump(0);
}

// The reference for a cached run: the same design and pokes simulated solo
// in process on the full-cycle engine.
obs::Json soloOutputs(const std::shared_ptr<const sim::CompiledDesign>& design,
                      const std::vector<std::pair<std::string, uint64_t>>& pokes) {
  auto eng = sim::makeEngine(sim::EngineKind::FullCycle, design);
  for (const auto& [name, v] : pokes) eng->poke(name, v);
  for (uint64_t c = 0; c < kRunCycles; c++) eng->tick();
  obs::Json outputs = obs::Json::object();
  for (int32_t o : design->ir.outputs)
    outputs[design->ir.signals[static_cast<size_t>(o)].name] = eng->peekSigBV(o).toHexString();
  return outputs;
}

struct Sample {
  Kind kind;
  double ms;
  bool traced;
  uint64_t cycles;  // simulated cycles the response reports
};

}  // namespace

Outcome runEssentdMix(const RunOptions& opt) {
  Outcome out;
  Rng rng(opt.seed * 0xa0761d6478bd642fULL + 3);

  // Inputs and their in-process references, prepared before the server runs.
  const std::string runText = systolicText(kRunDim, 16);
  FrontendSetup front = setUpInterpreted(runText, 1, opt.trace, out, /*makeEngine=*/false);
  recordSchedule(out, buildScheduleLayer(front.built.design->ir));
  std::vector<std::vector<std::pair<std::string, uint64_t>>> pokeSets(kPokeSets);
  std::vector<obs::Json> expected;
  std::vector<std::string> coldTexts;
  std::vector<uint64_t> coldOps;
  {
    Span s("perfbench.reference");
    for (auto& pokes : pokeSets) {
      pokes.push_back({"en", 1});
      for (uint32_t i = 0; i < kRunDim; i++)
        pokes.push_back({strfmt("a%u", i), rng.next() & 0xffff});
      for (uint32_t j = 0; j < kRunDim; j++)
        pokes.push_back({strfmt("b%u", j), rng.next() & 0xffff});
      expected.push_back(soloOutputs(front.built.design, pokes));
    }
    // Distinct widths give distinct designs of near-equal compile cost.
    std::vector<uint32_t> widths;
    for (uint32_t w = 8; w < 40; w++) widths.push_back(w);
    for (size_t i = widths.size() - 1; i > 0; i--)
      std::swap(widths[i], widths[rng.nextBelow(i + 1)]);
    for (unsigned d = 0; d < kColdDesigns; d++) {
      coldTexts.push_back(systolicText(kColdDim, widths[d]));
      coldOps.push_back(buildInterpreted(coldTexts.back(), false).design->ir.ops.size());
    }
  }

  // Set-up: server start to the first successful response, which compiles
  // the cached design. Repeated on fresh servers; the last one is kept.
  const std::string sock = opt.outDir + "/essentd-" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions so;
  so.unixPath = sock;
  so.workers = kServerWorkers;
  so.queueCapacity = 16;
  so.cacheCapacity = kCacheCapacity;
  so.farmWorkers = 1;
  std::unique_ptr<serve::Server> server;
  std::string runHash;
  std::vector<double> setupS;
  for (unsigned rep = 0; rep < kSetupReps; rep++) {
    server.reset();
    rotateProcessor(rep);
    hostSpeed().sample();
    Span s("perfbench.setup");
    Clock::time_point t0 = Clock::now();
    server = std::make_unique<serve::Server>(so);
    {
      Span st("serve.start");
      server->start();
    }
    Reply r = request(sock, compilePayload(runText), 0);
    setupS.push_back(secondsSince(t0));
    out.check(r.ok, "first compile on a fresh server: " + r.error);
    if (!r.ok) return out;
    runHash = r.doc.at("design_hash").asStr();
  }
  restoreProcessors();
  out.e2e("setup_s", median(setupS));
  std::printf("setup: %u server starts, median %.4f s to the first response\n", kSetupReps,
              median(setupS));

  // The closed loop.
  std::mutex mu;
  std::vector<Sample> samples;
  std::atomic<uint64_t> nextId{1};
  const bool traceOn = opt.trace;
  Clock::time_point t0 = Clock::now();
  std::atomic<unsigned> running{kClients};
  double wall = 0;
  auto client = [&](unsigned c) {
    Rng crng(opt.seed * 131 + c);
    size_t cold = c;  // clients walk the cold designs from different offsets
    uint64_t passCycles = 0;
    for (size_t i = 0; secondsSince(t0) < opt.seconds; i++) {
      Kind kind = kPattern[(i + c * 3) % kPatternLen];
      uint64_t id = nextId.fetch_add(1);
      bool traced = traceOn && i % 2 == 0;
      unsigned pokeIdx = static_cast<unsigned>(crng.nextBelow(kPokeSets));
      std::string payload;
      const char* spanName = "serve.run";
      if (kind == Kind::Run) {
        payload = runPayload(runHash, kRunCycles, 0, pokeSets[pokeIdx]);
      } else if (kind == Kind::Batch) {
        spanName = "serve.batch";
        payload = runPayload(runHash, kBatchCycles, kBatch, pokeSets[pokeIdx]);
      } else {
        spanName = "serve.compile";
        cold = (cold + kClients) % kColdDesigns;
        payload = compilePayload(coldTexts[cold]);
      }
      Clock::time_point q0 = Clock::now();
      Reply r;
      {
        TraceToggle toggle(traced);
        Span s(spanName, id);
        r = request(sock, payload, id);
      }
      double ms = secondsSince(q0) * 1e3;
      bool ok = r.ok;
      std::string what = std::string(spanName) + ": " + r.error;
      uint64_t cyc = 0;
      try {  // a malformed response must fail the request, not end the thread
        if (ok && kind == Kind::Run) {
          const obs::Json* outputs = r.doc.find("outputs");
          cyc = r.doc.at("cycles").asUInt();
          ok = cyc == kRunCycles && outputs && *outputs == expected[pokeIdx];
          what = std::string(spanName) + ": outputs differ from the solo run";
        } else if (ok && kind == Kind::Batch) {
          const obs::Json& farm = r.doc.at("farm");
          cyc = r.doc.at("cycles").asUInt();
          ok = farm.at("instances").asUInt() == kBatch && farm.at("failures").asUInt() == 0 &&
               cyc == kBatch * kBatchCycles;
          what = std::string(spanName) + ": farm report differs from the solo expectation";
        } else if (ok) {
          ok = r.doc.at("design").at("ir_ops").asUInt() == coldOps[cold];
          what = std::string(spanName) + ": ir_ops differs from the in-process compile";
        }
      } catch (const std::exception& e) {
        ok = false;
        what = std::string(spanName) + ": malformed response: " + e.what();
      }
      passCycles += cyc;
      std::lock_guard<std::mutex> lock(mu);
      out.check(ok, what);
      if (ok) samples.push_back({kind, ms, traced, cyc});  // a failure fails the run
      // Every pass through the schedule serves the same simulated cycles.
      if (i % kPatternLen == kPatternLen - 1) {
        out.exactCount("sim_cycles", passCycles);
        passCycles = 0;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    wall = std::max(wall, secondsSince(t0));  // the loop ends with its last response
    running.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; c++) threads.emplace_back(client, c);
  // Every thread of the loop, the server's included, visits every processor
  // (perfbench.h, rotateOtherThreads).
  for (uint64_t step = 0; running.load() > 0; step++) {
    rotateOtherThreads(step);
    std::this_thread::sleep_for(std::chrono::milliseconds(kRotateMs));
  }
  for (std::thread& t : threads) t.join();
  restoreOtherThreads();

  Reply st = request(sock, base("status").dump(0), 0);
  out.check(st.ok, "status: " + st.error);
  server.reset();
  ::unlink(sock.c_str());
  // The loop's threads share the host; its speed is sampled after it.
  hostSpeed().sampleFor(kSpeedSampleS);

  std::vector<double> all, byKind[3], traced, plain;
  uint64_t served = 0;
  for (const Sample& s : samples) {
    all.push_back(s.ms);
    byKind[static_cast<int>(s.kind)].push_back(s.ms);
    if (s.kind == Kind::Run) (s.traced ? traced : plain).push_back(s.ms);
    served += s.cycles;
  }
  out.lay("serve.req_p50_ms", percentile(all, 50));
  out.lay("serve.req_p99_ms", percentile(all, 99));
  out.lay("serve.req_per_s", static_cast<double>(all.size()) / wall);
  // Served throughput of the closed loop: the simulated cycles the
  // responses report per second of the loop's wall time.
  out.check(out.exact.count("sim_cycles") > 0, "every client completed a pass of the schedule");
  out.e2e("sim_khz", static_cast<double>(served) / wall / 1e3);
  out.e2e("sim_cycles", static_cast<double>(out.exact["sim_cycles"]));

  const char* names[] = {"run", "batch", "compile"};
  for (int k = 0; k < 3; k++) {
    out.lay(std::string("serve.") + names[k] + "_ms_p50", percentile(byKind[k], 50));
    out.lay(std::string("serve.") + names[k] + "_ms_p99", percentile(byKind[k], 99));
  }
  if (st.ok) {
    const obs::Json& stats = st.doc.at("stats");
    double hits = static_cast<double>(stats.at("cache").at("hits").asUInt());
    double misses = static_cast<double>(stats.at("cache").at("misses").asUInt());
    out.lay("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
    out.lay("serve.queue_depth_peak", static_cast<double>(stats.at("queue_depth_peak").asUInt()));
    out.lay("serve.shed", static_cast<double>(stats.at("connections_shed").asUInt()));
  }
  if (opt.trace) out.lay("perfbench.trace_overhead_ms", median(traced) - median(plain));
  std::printf("requests: %zu in %.2f s (run %zu, batch %zu, compile %zu samples); "
              "p50 %.3f ms p99 %.3f ms\n",
              all.size(), wall, byKind[0].size(), byKind[1].size(), byKind[2].size(),
              percentile(all, 50), percentile(all, 99));
  std::printf("served: %llu simulated cycles, %.1f kHz\n", static_cast<unsigned long long>(served),
              static_cast<double>(served) / wall / 1e3);
  return out;
}

}  // namespace perfbench

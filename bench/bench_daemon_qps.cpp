// Daemon service exhibit (extension; not a paper table): request throughput
// and tail latency of essentd's server loop under three mixes, all against
// an in-process serve::Server on a unix socket:
//
//   * cached   — every request runs a design already in the content-
//     addressed cache: the steady state of a regression/sweep service,
//     where the compile-once/simulate-many economics pay off;
//   * cold     — every request carries a distinct cache key (the cp option
//     participates in the key), so each one compiles: the worst case,
//     bounding what a cache miss costs end to end;
//   * overload — more client threads than workers against a deliberately
//     tiny admission queue: the row documents BOUNDED queue depth and the
//     E0609 load-shed rate instead of pretending the daemon has infinite
//     capacity. Shed requests are not failures — they are the survival
//     mechanism — so they are reported in their own column.
//
// Latency is measured client-side (connect → response parsed), which
// includes framing, queueing, and scheduling — the number a caller of the
// service actually sees. Honors ESSENT_BENCH_REPS (request count scale) and
// emits BENCH_daemon_qps.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/socket.h"

using namespace essent;

namespace {

const char* kCounterFir = R"(circuit Counter :
  module Counter :
    input clock : Clock
    input en : UInt<1>
    output out : UInt<8>

    reg c : UInt<8>, clock
    when en :
      c <= tail(add(c, UInt<8>(1)), 1)
    out <= c
)";

struct MixResult {
  uint64_t ok = 0;
  uint64_t errors = 0;     // structured E06xx responses (shed, deadline, ...)
  uint64_t shed = 0;       // the E0609 subset of `errors`
  uint64_t transport = 0;  // connect/read failures (should stay 0 here)
  double wallSeconds = 0.0;
  obs::HistogramSnapshot latency;
};

// One request over a fresh connection, latency recorded client-side.
void oneRequest(const std::string& sock, const std::string& payload,
                obs::Histogram& hist, MixResult& out, std::mutex& mu) {
  auto t0 = std::chrono::steady_clock::now();
  std::string kind = "transport";
  std::string code;
  try {
    support::Socket conn = support::connectUnix(sock);
    // Read even when the write fails: a door-shed E0609 is written and
    // closed at accept time and can race our request write.
    (void)support::writeFrame(conn.fd(), payload);
    std::string body;
    if (support::readFrame(conn.fd(), body, 64u << 20, 60'000) == support::FrameStatus::Ok) {
      std::optional<serve::ResponseEnvelope> env =
          serve::parseResponseEnvelope(obs::Json::parse(body));
      if (env) {
        kind = env->ok ? "ok" : "error";
        code = env->errorCode;
      }
    }
  } catch (const std::exception&) {
    // counted as transport below
  }
  uint64_t ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count());
  hist.record(ns);
  std::lock_guard<std::mutex> lock(mu);
  if (kind == "ok") out.ok++;
  else if (kind == "error") {
    out.errors++;
    if (code == serve::kErrOverloaded) out.shed++;
  } else {
    out.transport++;
  }
}

MixResult runMix(const std::string& sock, unsigned clients, unsigned perClient,
                 const std::function<std::string(unsigned reqIndex)>& payloadFor) {
  MixResult res;
  obs::Histogram hist;
  std::mutex mu;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (unsigned c = 0; c < clients; c++)
    ts.emplace_back([&, c] {
      for (unsigned i = 0; i < perClient; i++)
        oneRequest(sock, payloadFor(c * perClient + i), hist, res, mu);
    });
  for (std::thread& t : ts) t.join();
  res.wallSeconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  res.latency = hist.snapshot();
  return res;
}

obs::Json mixRow(const std::string& mix, unsigned clients, unsigned requests,
                 const MixResult& r) {
  obs::Json row = obs::Json::object();
  row["mix"] = mix;
  row["clients"] = clients;
  row["requests"] = requests;
  row["ok"] = r.ok;
  row["errors"] = r.errors;
  row["shed"] = r.shed;
  row["transport_failures"] = r.transport;
  row["wall_seconds"] = r.wallSeconds;
  row["req_per_sec"] = r.wallSeconds > 0 ? static_cast<double>(requests) / r.wallSeconds : 0.0;
  row["p50_ns"] = r.latency.p50;
  row["p99_ns"] = r.latency.p99;
  row["mean_ns"] = r.latency.mean;
  return row;
}

std::string runPayload(const std::string& designText, uint64_t cycles, uint32_t cp) {
  obs::Json req = obs::Json::object();
  req["proto"] = uint64_t{serve::kProtoMax};
  req["op"] = "run";
  req["design"] = designText;
  req["cycles"] = cycles;
  obs::Json opts = obs::Json::object();
  opts["cp"] = cp;
  req["options"] = std::move(opts);
  obs::Json pokes = obs::Json::object();
  pokes["en"] = 1u;
  req["pokes"] = std::move(pokes);
  return req.dump(0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report("daemon_qps", argc, argv);
  const unsigned scale = report.env().reps;  // reps scales request volume

  char tmpl[] = "/tmp/essent_bench_qps_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (!dir) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  std::string sock = std::string(dir) + "/d.sock";

  // --- cached + cold mixes: a comfortably provisioned server ---
  {
    serve::ServerOptions opts;
    opts.unixPath = sock;
    opts.workers = 4;
    opts.queueCapacity = 64;
    serve::Server server(opts);
    server.start();

    // Warm the cache, then measure pure cache-hit serving.
    const unsigned cachedClients = 4, cachedPer = 50 * scale;
    {
      MixResult warm = runMix(sock, 1, 1, [](unsigned) { return runPayload(kCounterFir, 256, 8); });
      (void)warm;
    }
    MixResult cached = runMix(sock, cachedClients, cachedPer,
                              [](unsigned) { return runPayload(kCounterFir, 256, 8); });
    report.addRow(mixRow("cached", cachedClients, cachedClients * cachedPer, cached));
    std::printf("cached:   %6.0f req/s  p50 %.2fms p99 %.2fms  (%llu ok, %llu err)\n",
                static_cast<double>(cachedClients * cachedPer) / cached.wallSeconds,
                cached.latency.p50 / 1e6, cached.latency.p99 / 1e6,
                static_cast<unsigned long long>(cached.ok),
                static_cast<unsigned long long>(cached.errors));

    // Cold: every request carries a distinct cp, hence a distinct cache key,
    // hence a full parse+lower+build+compile.
    const unsigned coldClients = 2, coldPer = 10 * scale;
    MixResult cold = runMix(sock, coldClients, coldPer, [](unsigned i) {
      return runPayload(kCounterFir, 256, 100 + i);  // unique key per request
    });
    report.addRow(mixRow("cold", coldClients, coldClients * coldPer, cold));
    std::printf("cold:     %6.0f req/s  p50 %.2fms p99 %.2fms  (%llu ok, %llu err)\n",
                static_cast<double>(coldClients * coldPer) / cold.wallSeconds,
                cold.latency.p50 / 1e6, cold.latency.p99 / 1e6,
                static_cast<unsigned long long>(cold.ok),
                static_cast<unsigned long long>(cold.errors));

    server.requestDrain();
    server.waitDrained();
  }

  // --- overload mix: tiny queue, more clients than workers ---
  {
    serve::ServerOptions opts;
    opts.unixPath = sock;
    opts.workers = 2;
    opts.queueCapacity = 4;
    opts.retryAfterMs = 50;
    serve::Server server(opts);
    server.start();

    // Warm the cache so the overload rows measure queueing, not compiles.
    runMix(sock, 1, 1, [](unsigned) { return runPayload(kCounterFir, 20'000, 8); });

    const unsigned loadClients = 12, loadPer = 10 * scale;
    MixResult over = runMix(sock, loadClients, loadPer,
                            [](unsigned) { return runPayload(kCounterFir, 20'000, 8); });
    serve::ServerStats stats = server.stats();
    obs::Json row = mixRow("overload", loadClients, loadClients * loadPer, over);
    row["queue_capacity"] = static_cast<uint64_t>(opts.queueCapacity);
    row["queue_depth_peak"] = stats.queueDepthPeak;
    row["connections_shed"] = stats.connectionsSheded;
    report.addRow(std::move(row));
    std::printf(
        "overload: %6.0f req/s  p50 %.2fms p99 %.2fms  (%llu ok, %llu shed; "
        "queue peak %llu of %zu)\n",
        static_cast<double>(loadClients * loadPer) / over.wallSeconds,
        over.latency.p50 / 1e6, over.latency.p99 / 1e6,
        static_cast<unsigned long long>(over.ok), static_cast<unsigned long long>(over.shed),
        static_cast<unsigned long long>(stats.queueDepthPeak), opts.queueCapacity);
    if (stats.queueDepthPeak > opts.queueCapacity) {
      std::fprintf(stderr, "BUG: queue depth %llu exceeded capacity %zu\n",
                   static_cast<unsigned long long>(stats.queueDepthPeak), opts.queueCapacity);
      return 1;
    }

    server.requestDrain();
    server.waitDrained();
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  report.write();
  return 0;
}

// essentd service suite: wire framing, strict protocol decode, the
// content-addressed design cache, and the hardened server loop end to end —
// admission control, per-request deadlines, error isolation, graceful
// drain, the golden wire corpus, and a seeded chaos campaign. Also locks in
// the SHARED SimFarm wall-clock budget (FarmOptions::guard): N concurrent
// instances stop within one check interval of the same deadline instead of
// overshooting N-fold. Run just these with `ctest -L serve`.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sim_farm.h"
#include "obs/json.h"
#include "serve/design_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/compile.h"
#include "sim/engine.h"
#include "sim/engine_factory.h"
#include "support/resource_guard.h"
#include "support/socket.h"

namespace {

using namespace essent;
using Clock = std::chrono::steady_clock;

int64_t msSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0).count();
}

// Small sequential design used where compile time should be negligible.
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

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string gcdFir() { return readFileOrDie(std::string(EXAMPLES_DIR) + "/gcd.fir"); }

// --- framing ---------------------------------------------------------------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void closeA() {
    ::close(a);
    a = -1;
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair sp;
  for (const std::string& payload :
       {std::string("{\"op\":\"ping\"}"), std::string(""), std::string(4096, 'x')}) {
    ASSERT_TRUE(support::writeFrame(sp.a, payload));
    std::string got;
    ASSERT_EQ(support::readFrame(sp.b, got, 1u << 20, 1000), support::FrameStatus::Ok);
    EXPECT_EQ(got, payload);
  }
}

TEST(Framing, CleanCloseIsEof) {
  SocketPair sp;
  sp.closeA();
  std::string got;
  EXPECT_EQ(support::readFrame(sp.b, got, 1u << 20, 1000), support::FrameStatus::Eof);
}

TEST(Framing, StreamEndingInsidePayloadIsTruncated) {
  SocketPair sp;
  const unsigned char prefix[4] = {0, 0, 0, 100};  // declares 100 bytes
  ASSERT_TRUE(support::sendAll(sp.a, prefix, 4));
  ASSERT_TRUE(support::sendAll(sp.a, "hello", 5));
  sp.closeA();
  std::string got;
  EXPECT_EQ(support::readFrame(sp.b, got, 1u << 20, 1000), support::FrameStatus::Truncated);
}

TEST(Framing, StreamEndingInsidePrefixIsTruncated) {
  SocketPair sp;
  const unsigned char half[2] = {0, 0};
  ASSERT_TRUE(support::sendAll(sp.a, half, 2));
  sp.closeA();
  std::string got;
  EXPECT_EQ(support::readFrame(sp.b, got, 1u << 20, 1000), support::FrameStatus::Truncated);
}

TEST(Framing, OversizedPrefixReportsDeclaredLength) {
  SocketPair sp;
  const unsigned char prefix[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_TRUE(support::sendAll(sp.a, prefix, 4));
  std::string got;
  uint64_t declared = 0;
  EXPECT_EQ(support::readFrame(sp.b, got, 1u << 20, 1000, &declared),
            support::FrameStatus::Oversized);
  EXPECT_EQ(declared, 0x7fffffffu);
}

TEST(Framing, SilentPeerTimesOut) {
  SocketPair sp;
  std::string got;
  Clock::time_point t0 = Clock::now();
  EXPECT_EQ(support::readFrame(sp.b, got, 1u << 20, 100), support::FrameStatus::TimedOut);
  EXPECT_LT(msSince(t0), 5000);
}

// --- protocol --------------------------------------------------------------

TEST(Protocol, ParsesRunRequest) {
  obs::Json doc = obs::Json::parse(
      R"({"proto":1,"op":"run","design":"circuit X :","cycles":32,"batch":4,)"
      R"("pokes":{"en":1},"options":{"engine":"ccss","cp":16,"baseline":true}})");
  std::string code, msg;
  std::optional<serve::Request> req = serve::parseRequest(doc, code, msg);
  ASSERT_TRUE(req.has_value()) << code << ": " << msg;
  EXPECT_EQ(req->op, serve::RequestOp::Run);
  EXPECT_EQ(req->cycles, 32u);
  EXPECT_EQ(req->batch, 4u);
  EXPECT_EQ(req->pokes.at("en"), 1u);
  EXPECT_EQ(req->options.cp, 16u);
  EXPECT_TRUE(req->options.baseline);
}

TEST(Protocol, RejectsUnknownTopLevelField) {
  obs::Json doc = obs::Json::parse(R"({"proto":1,"op":"ping","flux":1})");
  std::string code, msg;
  EXPECT_FALSE(serve::parseRequest(doc, code, msg).has_value());
  EXPECT_EQ(code, serve::kErrBadRequest);
}

TEST(Protocol, RejectsRunWithoutCycles) {
  obs::Json doc = obs::Json::parse(R"({"proto":1,"op":"run","design":"circuit X :"})");
  std::string code, msg;
  EXPECT_FALSE(serve::parseRequest(doc, code, msg).has_value());
  EXPECT_EQ(code, serve::kErrBadRequest);
}

TEST(Protocol, MissingProtoNamesSupportedRange) {
  obs::Json doc = obs::Json::parse(R"({"op":"ping"})");
  std::string code, msg;
  EXPECT_FALSE(serve::parseRequest(doc, code, msg).has_value());
  EXPECT_EQ(code, serve::kErrBadRequest);
  EXPECT_NE(msg.find("proto"), std::string::npos) << msg;
  EXPECT_NE(msg.find("supported protocol versions: 1..1"), std::string::npos) << msg;
}

TEST(Protocol, UnsupportedProtoNamesSupportedRange) {
  obs::Json doc = obs::Json::parse(R"({"proto":99,"op":"ping"})");
  std::string code, msg;
  EXPECT_FALSE(serve::parseRequest(doc, code, msg).has_value());
  EXPECT_EQ(code, serve::kErrBadRequest);
  EXPECT_NE(msg.find("unsupported protocol version 99"), std::string::npos) << msg;
  EXPECT_NE(msg.find("supported: 1..1"), std::string::npos) << msg;
  obs::Json bad = obs::Json::parse(R"({"proto":"one","op":"ping"})");
  EXPECT_FALSE(serve::parseRequest(bad, code, msg).has_value());
  EXPECT_EQ(code, serve::kErrBadRequest);
}

TEST(Protocol, ResponsesEchoProtocolVersion) {
  obs::Json ok = serve::okResponse(serve::RequestOp::Status);
  ASSERT_NE(ok.find("proto"), nullptr);
  EXPECT_EQ(ok.at("proto").asUInt(), serve::kProtoMax);
  obs::Json err = serve::errorResponse(serve::kErrBadRequest, "nope");
  ASSERT_NE(err.find("proto"), nullptr);
  EXPECT_EQ(err.at("proto").asUInt(), serve::kProtoMax);
}

TEST(Protocol, DesignHashCoversTextAndOptions) {
  serve::RequestOptions base;
  std::string h1 = serve::designHash("circuit A :", base);
  EXPECT_EQ(h1.size(), 32u);
  EXPECT_EQ(h1, serve::designHash("circuit A :", base));
  EXPECT_NE(h1, serve::designHash("circuit B :", base));
  serve::RequestOptions baseline = base;
  baseline.baseline = true;
  EXPECT_NE(h1, serve::designHash("circuit A :", baseline));
  serve::RequestOptions cp = base;
  cp.cp = 32;
  EXPECT_NE(h1, serve::designHash("circuit A :", cp));
}

TEST(Protocol, ResponseEnvelopeRoundTrips) {
  std::optional<serve::ResponseEnvelope> ok =
      serve::parseResponseEnvelope(serve::okResponse(serve::RequestOp::Ping));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);

  std::optional<serve::ResponseEnvelope> err = serve::parseResponseEnvelope(
      serve::errorResponse(serve::kErrOverloaded, "queue full", 250));
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->errorCode, serve::kErrOverloaded);
  EXPECT_EQ(err->retryAfterMs, 250);

  EXPECT_FALSE(serve::parseResponseEnvelope(obs::Json::parse(R"({"weird":1})")).has_value());
}

// --- design cache ----------------------------------------------------------

std::shared_ptr<const sim::CompiledDesign> compileText(const std::string& text) {
  return sim::CompiledDesign::compile(sim::buildFromFirrtl(text));
}

TEST(DesignCacheTest, CompilesOncePerKeyAcrossThreads) {
  serve::DesignCache cache(8);
  std::atomic<int> compiles{0};
  auto fn = [&](const std::string& text) {
    compiles.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return compileText(text);
  };
  std::vector<std::thread> ts;
  std::atomic<int> served{0};
  for (int i = 0; i < 4; i++)
    ts.emplace_back([&] {
      serve::DesignCache::Result r = cache.getOrCompile("k1", kCounterFir, fn);
      if (r.design) served.fetch_add(1);
    });
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(served.load(), 4);
  EXPECT_GE(cache.stats().coalesced + cache.stats().hits, 3u);
}

TEST(DesignCacheTest, FailuresPropagateAndAreNotCached) {
  serve::DesignCache cache(8);
  int calls = 0;
  auto failing = [&](const std::string&) -> std::shared_ptr<const sim::CompiledDesign> {
    calls++;
    throw std::runtime_error("transient");
  };
  EXPECT_THROW(cache.getOrCompile("k", kCounterFir, failing), std::runtime_error);
  // The failure did not poison the key: the next caller compiles fresh.
  serve::DesignCache::Result r =
      cache.getOrCompile("k", kCounterFir, [&](const std::string& t) {
        calls++;
        return compileText(t);
      });
  EXPECT_TRUE(r.design != nullptr);
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(cache.lookup("k") != nullptr);
}

TEST(DesignCacheTest, EvictsLeastRecentlyUsed) {
  serve::DesignCache cache(2);
  auto fn = [](const std::string& t) { return compileText(t); };
  cache.getOrCompile("a", kCounterFir, fn);
  cache.getOrCompile("b", kCounterFir, fn);
  cache.getOrCompile("a", kCounterFir, fn);  // touch a; b is now LRU
  cache.getOrCompile("c", kCounterFir, fn);  // evicts b
  EXPECT_TRUE(cache.lookup("a") != nullptr);
  EXPECT_TRUE(cache.lookup("b") == nullptr);
  EXPECT_TRUE(cache.lookup("c") != nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.evict("c"));
  EXPECT_FALSE(cache.evict("c"));
  EXPECT_TRUE(cache.lookup("c") == nullptr);
}

// --- server ----------------------------------------------------------------

// In-process daemon on a unix socket inside a private scratch dir.
struct TestServer {
  std::string dir;
  std::string sock;
  std::unique_ptr<serve::Server> server;

  explicit TestServer(serve::ServerOptions opts = {}) {
    char tmpl[] = "/tmp/essent_serve_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    dir = made;
    sock = dir + "/essentd.sock";
    opts.unixPath = sock;
    server = std::make_unique<serve::Server>(std::move(opts));
    server->start();
  }
  ~TestServer() {
    server.reset();  // implies drain
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// One request/response on an existing connection; nullopt on any transport
// failure (used by the chaos campaign where cuts are expected).
std::optional<obs::Json> rpcOn(support::Socket& conn, const std::string& payload) {
  // Try the read even if the write failed: a shed/drain rejection is
  // written at accept time and can race our request write — the E0609 or
  // E0610 frame is already in the receive buffer when the EPIPE lands.
  (void)support::writeFrame(conn.fd(), payload);
  std::string body;
  if (support::readFrame(conn.fd(), body, 64u << 20, 20'000) != support::FrameStatus::Ok)
    return std::nullopt;
  try {
    return obs::Json::parse(body);
  } catch (const obs::JsonError&) {
    return std::nullopt;
  }
}

std::optional<obs::Json> rpc(const TestServer& ts, const std::string& payload) {
  try {
    support::Socket conn = support::connectUnix(ts.sock);
    return rpcOn(conn, payload);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

serve::ResponseEnvelope envelope(const std::optional<obs::Json>& doc) {
  EXPECT_TRUE(doc.has_value()) << "no structured response";
  if (!doc) return {};
  std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*doc);
  EXPECT_TRUE(env.has_value()) << "unparseable envelope: " << doc->dump(0);
  return env ? *env : serve::ResponseEnvelope{};
}

obs::Json runRequest(const std::string& designText, uint64_t cycles,
                     std::map<std::string, uint64_t> pokes = {}) {
  obs::Json req = obs::Json::object();
  req["proto"] = uint64_t{serve::kProtoMax};
  req["op"] = "run";
  req["design"] = designText;
  req["cycles"] = cycles;
  if (!pokes.empty()) {
    obs::Json p = obs::Json::object();
    for (const auto& [k, v] : pokes) p[k] = v;
    req["pokes"] = std::move(p);
  }
  return req;
}

TEST(ServerTest, PingRoundTrip) {
  TestServer ts;
  std::optional<obs::Json> doc = rpc(ts, R"({"proto":1,"op":"ping"})");
  serve::ResponseEnvelope env = envelope(doc);
  EXPECT_TRUE(env.ok);
  ASSERT_NE(doc->find("op"), nullptr);
  EXPECT_EQ(doc->at("op").asStr(), "ping");
}

TEST(ServerTest, CompileThenRunByHashHitsCache) {
  TestServer ts;
  obs::Json creq = obs::Json::object();
  creq["proto"] = uint64_t{serve::kProtoMax};
  creq["op"] = "compile";
  creq["design"] = gcdFir();
  std::optional<obs::Json> cresp = rpc(ts, creq.dump(0));
  ASSERT_TRUE(envelope(cresp).ok) << cresp->dump(0);
  std::string hash = cresp->at("design_hash").asStr();
  EXPECT_EQ(hash.size(), 32u);
  EXPECT_FALSE(cresp->at("cached").asBool());
  EXPECT_GT(cresp->at("design").at("ir_ops").asUInt(), 0u);

  obs::Json rreq = obs::Json::object();
  rreq["proto"] = uint64_t{serve::kProtoMax};
  rreq["op"] = "run";
  rreq["design_hash"] = hash;
  rreq["cycles"] = uint64_t{64};
  std::optional<obs::Json> rresp = rpc(ts, rreq.dump(0));
  ASSERT_TRUE(envelope(rresp).ok) << rresp->dump(0);
  EXPECT_TRUE(rresp->at("cached").asBool());
  EXPECT_EQ(rresp->at("cycles").asUInt(), 64u);

  serve::ServerStats stats = ts.server->stats();
  EXPECT_GE(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(ServerTest, RunMatchesSoloEngine) {
  TestServer ts;
  std::string fir = gcdFir();
  const uint64_t cycles = 200;
  std::map<std::string, uint64_t> pokes{{"start", 1}, {"a", 1071}, {"b", 462}};
  std::optional<obs::Json> resp = rpc(ts, runRequest(fir, cycles, pokes).dump(0));
  ASSERT_TRUE(envelope(resp).ok) << resp->dump(0);

  // Same design, same pokes, same tick count through the in-process engine.
  std::shared_ptr<const sim::CompiledDesign> design = compileText(fir);
  std::unique_ptr<sim::Engine> eng = sim::makeEngine(sim::EngineKind::Ccss, design);
  for (const auto& [k, v] : pokes) eng->poke(k, v);
  for (uint64_t c = 0; c < cycles && !eng->stopped(); c++) eng->tick();

  const obs::Json& outputs = resp->at("outputs");
  ASSERT_GT(outputs.size(), 0u);
  for (const auto& [name, hex] : outputs.members())
    EXPECT_EQ(hex.asStr(), eng->peekBV(name).toHexString()) << "output " << name;
}

// Wire compatibility: options.threads and engine "par" stay accepted, run
// the serial CCSS engine (same outputs as threads: 1), and say so with a
// W0601 warning — no request can make the daemon spawn threads.
TEST(ServerTest, ThreadsAndParRunSerialWithWarning) {
  TestServer ts;
  std::ifstream f(std::string(WIRE_CORPUS_DIR) + "/threads_ignored.case");
  std::string directive, payload;
  std::getline(f, directive);
  std::getline(f, payload);
  obs::Json threaded = obs::Json::parse(payload);
  obs::Json plain = threaded;
  plain["options"]["threads"] = 1u;
  obs::Json par = plain;
  par["options"]["engine"] = "par";

  std::optional<obs::Json> base = rpc(ts, plain.dump(0));
  ASSERT_TRUE(envelope(base).ok) << base->dump(0);
  EXPECT_EQ(base->find("warnings"), nullptr);
  for (const obs::Json& req : {threaded, par}) {
    std::optional<obs::Json> resp = rpc(ts, req.dump(0));
    ASSERT_TRUE(envelope(resp).ok) << resp->dump(0);
    EXPECT_EQ(resp->at("outputs").dump(0), base->at("outputs").dump(0));
    EXPECT_EQ(resp->at("cycles").asUInt(), base->at("cycles").asUInt());
    ASSERT_NE(resp->find("warnings"), nullptr) << resp->dump(0);
    ASSERT_EQ(resp->at("warnings").size(), 1u) << resp->dump(0);
    EXPECT_EQ(resp->at("warnings").at(0).asStr().rfind("W0601: ", 0), 0u) << resp->dump(0);
  }
  // Still range-checked: outside input must not pick an unbounded count.
  obs::Json huge = plain;
  huge["options"]["threads"] = 100000u;
  EXPECT_EQ(envelope(rpc(ts, huge.dump(0))).errorCode, serve::kErrBadRequest);
}

TEST(ServerTest, BatchRunReportsFarmResults) {
  TestServer ts;
  obs::Json req = runRequest(kCounterFir, 500, {{"en", 1}});
  req["batch"] = 4u;
  std::optional<obs::Json> resp = rpc(ts, req.dump(0));
  ASSERT_TRUE(envelope(resp).ok) << resp->dump(0);
  const obs::Json& farm = resp->at("farm");
  EXPECT_EQ(farm.at("instances").asUInt(), 4u);
  EXPECT_EQ(farm.at("failures").asUInt(), 0u);
  EXPECT_EQ(farm.at("total_cycles").asUInt(), 2000u);
  EXPECT_GE(farm.at("p99_ns").asUInt(), farm.at("p50_ns").asUInt());
}

TEST(ServerTest, WireCorpusGolden) {
  TestServer ts;
  namespace fs = std::filesystem;
  size_t cases = 0;
  for (const fs::directory_entry& ent : fs::directory_iterator(WIRE_CORPUS_DIR)) {
    if (ent.path().extension() != ".case") continue;
    cases++;
    std::string name = ent.path().stem().string();
    std::ifstream f(ent.path());
    ASSERT_TRUE(f.good()) << ent.path();
    std::string directive;
    std::getline(f, directive);
    std::ostringstream rest;
    rest << f.rdbuf();

    std::string expectLine;
    {
      std::ifstream ef(ent.path().parent_path() / (name + ".expect"));
      ASSERT_TRUE(ef.good()) << "missing .expect for " << name;
      std::getline(ef, expectLine);
    }

    support::Socket conn = support::connectUnix(ts.sock);
    if (directive == "frame-json") {
      ASSERT_TRUE(support::writeFrame(conn.fd(), rest.str())) << name;
    } else if (directive == "raw-hex") {
      std::string bytes;
      std::istringstream tokens(rest.str());
      std::string line;
      while (std::getline(tokens, line)) {
        if (!line.empty() && line[0] == '#') continue;
        std::istringstream lt(line);
        std::string tok;
        while (lt >> tok)
          bytes.push_back(static_cast<char>(std::stoul(tok, nullptr, 16)));
      }
      ASSERT_TRUE(support::sendAll(conn.fd(), bytes.data(), bytes.size())) << name;
      conn.shutdownWrite();  // malformed stream ends here; response still readable
    } else {
      FAIL() << name << ": unknown directive '" << directive << "'";
    }

    std::string body;
    ASSERT_EQ(support::readFrame(conn.fd(), body, 64u << 20, 20'000), support::FrameStatus::Ok)
        << name << ": no response frame";
    std::optional<serve::ResponseEnvelope> env;
    ASSERT_NO_THROW(env = serve::parseResponseEnvelope(obs::Json::parse(body))) << name;
    ASSERT_TRUE(env.has_value()) << name << ": bad envelope " << body;
    if (expectLine == "ok") {
      EXPECT_TRUE(env->ok) << name << ": " << body;
    } else {
      EXPECT_FALSE(env->ok) << name << ": " << body;
      EXPECT_EQ(env->errorCode, expectLine) << name << ": " << body;
    }

    // The daemon must survive every corpus case: a fresh request succeeds.
    EXPECT_TRUE(envelope(rpc(ts, R"({"proto":1,"op":"ping"})")).ok) << "daemon died after " << name;
  }
  EXPECT_GE(cases, 10u) << "wire corpus went missing";
}

TEST(ServerTest, ForgedDesignHashIsRejectedAndNeverCached) {
  TestServer ts;
  const std::string forged = "00112233445566778899aabbccddeeff";

  // Text + mismatched hash: E0604, for both run and compile.
  obs::Json req = runRequest(kCounterFir, 8, {{"en", 1}});
  req["design_hash"] = forged;
  serve::ResponseEnvelope env = envelope(rpc(ts, req.dump(0)));
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.errorCode, serve::kErrBadRequest);
  obs::Json creq = obs::Json::object();
  creq["proto"] = uint64_t{serve::kProtoMax};
  creq["op"] = "compile";
  creq["design"] = kCounterFir;
  creq["design_hash"] = forged;
  EXPECT_EQ(envelope(rpc(ts, creq.dump(0))).errorCode, serve::kErrBadRequest);

  // The poisoning attempt populated nothing: the forged key still misses,
  // so a victim whose design legitimately hashes there would compile fresh.
  obs::Json byHash = obs::Json::object();
  byHash["proto"] = uint64_t{serve::kProtoMax};
  byHash["op"] = "run";
  byHash["design_hash"] = forged;
  byHash["cycles"] = uint64_t{8};
  EXPECT_EQ(envelope(rpc(ts, byHash.dump(0))).errorCode, serve::kErrUnknownDesign);

  // A client double-checking with the MATCHING hash is admitted.
  obs::Json good = runRequest(kCounterFir, 8, {{"en", 1}});
  good["design_hash"] = serve::designHash(kCounterFir, serve::RequestOptions{});
  EXPECT_TRUE(envelope(rpc(ts, good.dump(0))).ok);
}

TEST(ServerTest, BatchMemoryAdmissionScalesWithLiveEngines) {
  uint64_t stateBytes = sim::estimateStateBytes(sim::buildFromFirrtl(kCounterFir));
  ASSERT_GT(stateBytes, 0u);
  serve::ServerOptions opts;
  opts.farmWorkers = 4;
  opts.limits.maxSimMemBytes = stateBytes * 2;  // one engine fits, four do not
  TestServer ts(opts);

  // Solo and a 2-instance batch (2 live engines == ceiling) are admitted...
  EXPECT_TRUE(envelope(rpc(ts, runRequest(kCounterFir, 16, {{"en", 1}}).dump(0))).ok);
  obs::Json small = runRequest(kCounterFir, 16, {{"en", 1}});
  small["batch"] = 2u;
  EXPECT_TRUE(envelope(rpc(ts, small.dump(0))).ok);

  // ...but batch=8 keeps min(8, farmWorkers)=4 engines live: 4x the state
  // against a 2x ceiling must be rejected up front, not allocated.
  obs::Json batched = runRequest(kCounterFir, 16, {{"en", 1}});
  batched["batch"] = 8u;
  serve::ResponseEnvelope env = envelope(rpc(ts, batched.dump(0)));
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.errorCode, serve::kErrResourceLimit);
}

TEST(SocketTest, ListenUnixRefusesNonSocketPathsAndLiveDaemons) {
  char tmpl[] = "/tmp/essent_sockguard_XXXXXX";
  char* made = mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  std::string dir = made;

  // A regular file at the path is refused AND survives the attempt.
  std::string file = dir + "/precious.txt";
  { std::ofstream f(file); f << "do not delete"; }
  EXPECT_THROW(support::listenUnix(file), std::runtime_error);
  EXPECT_TRUE(std::filesystem::exists(file));
  EXPECT_EQ(readFileOrDie(file), "do not delete");

  // A second daemon must not steal a live listener's socket...
  std::string sock = dir + "/live.sock";
  {
    support::Socket first = support::listenUnix(sock);
    ASSERT_TRUE(first.valid());
    EXPECT_THROW(support::listenUnix(sock), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(sock)) << "refusal unlinked the live socket";
  }
  // ...but a stale socket left by a dead process is replaced normally.
  ASSERT_TRUE(std::filesystem::exists(sock));
  support::Socket second = support::listenUnix(sock);
  EXPECT_TRUE(second.valid());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ServerTest, PerRequestErrorIsolationOnOneConnection) {
  TestServer ts;
  support::Socket conn = support::connectUnix(ts.sock);

  // A rejected design renders as E0605 with front-end diagnostics...
  obs::Json bad = obs::Json::object();
  bad["proto"] = uint64_t{serve::kProtoMax};
  bad["op"] = "compile";
  bad["design"] = "circuit Broken :\n  module Broken :\n    output o : UInt<8>\n    o <= q\n";
  std::optional<obs::Json> r1 = rpcOn(conn, bad.dump(0));
  serve::ResponseEnvelope e1 = envelope(r1);
  EXPECT_FALSE(e1.ok);
  EXPECT_EQ(e1.errorCode, serve::kErrDesignRejected);
  ASSERT_NE(r1->at("error").find("diagnostics"), nullptr);
  EXPECT_GT(r1->at("error").at("diagnostics").size(), 0u);

  // ...and poisons neither the connection nor the worker.
  EXPECT_TRUE(envelope(rpcOn(conn, R"({"proto":1,"op":"ping"})")).ok);
  std::optional<obs::Json> r3 = rpcOn(conn, runRequest(kCounterFir, 16).dump(0));
  EXPECT_TRUE(envelope(r3).ok);
}

TEST(ServerTest, DeadlineRendersAsE0607) {
  serve::ServerOptions opts;
  opts.requestDeadlineMs = 100;
  TestServer ts(opts);
  // 50M cycles of GCD cannot finish inside 100ms; the in-loop guard check
  // must cut the request off and render E0504 as a wire E0607.
  Clock::time_point t0 = Clock::now();
  std::optional<obs::Json> resp = rpc(ts, runRequest(gcdFir(), 50'000'000).dump(0));
  serve::ResponseEnvelope env = envelope(resp);
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.errorCode, serve::kErrDeadline);
  EXPECT_LT(msSince(t0), 20'000);  // cut off promptly, not after 50M cycles
  // The worker survived the kill.
  EXPECT_TRUE(envelope(rpc(ts, R"({"proto":1,"op":"ping"})")).ok);
}

TEST(ServerTest, CycleCeilingRendersAsE0606) {
  serve::ServerOptions opts;
  opts.maxCyclesPerRequest = 1000;
  TestServer ts(opts);
  serve::ResponseEnvelope env = envelope(rpc(ts, runRequest(kCounterFir, 2000).dump(0)));
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.errorCode, serve::kErrResourceLimit);
  // batch multiplies the budget: 400 cycles x 4 instances = 1600 > 1000.
  obs::Json batched = runRequest(kCounterFir, 400);
  batched["batch"] = 4u;
  serve::ResponseEnvelope benv = envelope(rpc(ts, batched.dump(0)));
  EXPECT_FALSE(benv.ok);
  EXPECT_EQ(benv.errorCode, serve::kErrResourceLimit);
}

TEST(ServerTest, FullQueueShedsWithRetryHint) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queueCapacity = 1;
  opts.enableTestHooks = true;
  opts.retryAfterMs = 123;
  TestServer ts(opts);

  // Occupy the only worker...
  support::Socket busy = support::connectUnix(ts.sock);
  ASSERT_TRUE(support::writeFrame(busy.fd(), R"({"proto":1,"op":"ping","sleep_ms":1500})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // ...fill the queue behind it...
  support::Socket queued = support::connectUnix(ts.sock);
  ASSERT_TRUE(support::writeFrame(queued.fd(), R"({"proto":1,"op":"ping"})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...and every further connection is shed at the door with E0609.
  int shed = 0;
  for (int i = 0; i < 3; i++) {
    std::optional<obs::Json> resp = rpc(ts, R"({"proto":1,"op":"ping"})");
    serve::ResponseEnvelope env = envelope(resp);
    EXPECT_FALSE(env.ok);
    EXPECT_EQ(env.errorCode, serve::kErrOverloaded);
    EXPECT_EQ(env.retryAfterMs, 123);
    shed++;
  }
  EXPECT_EQ(shed, 3);

  // The occupied worker and queued connection still complete normally.
  // (Connections are keep-alive: close `busy` after its response so the
  // worker moves on to the queued one instead of awaiting another frame.)
  std::string body;
  EXPECT_EQ(support::readFrame(busy.fd(), body, 1u << 20, 20'000), support::FrameStatus::Ok);
  busy.close();
  EXPECT_EQ(support::readFrame(queued.fd(), body, 1u << 20, 20'000), support::FrameStatus::Ok);
  EXPECT_GE(ts.server->stats().connectionsSheded, 3u);
}

TEST(ServerTest, DrainFinishesInFlightAndRejectsQueued) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queueCapacity = 4;
  opts.enableTestHooks = true;
  TestServer ts(opts);

  // In-flight request: holds the worker well past the drain signal.
  support::Socket inflight = support::connectUnix(ts.sock);
  ASSERT_TRUE(support::writeFrame(inflight.fd(), R"({"proto":1,"op":"ping","sleep_ms":2000})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Queued-but-unserved connection: must be answered, not abandoned.
  support::Socket queued = support::connectUnix(ts.sock);
  ASSERT_TRUE(support::writeFrame(queued.fd(), R"({"proto":1,"op":"ping"})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Clock::time_point t0 = Clock::now();
  ts.server->requestDrain();
  EXPECT_TRUE(ts.server->draining());

  // The in-flight request completes successfully (the test-hook sleep is
  // drain-aware, so this returns quickly rather than after 2s).
  std::string body;
  ASSERT_EQ(support::readFrame(inflight.fd(), body, 1u << 20, 20'000), support::FrameStatus::Ok);
  EXPECT_TRUE(serve::parseResponseEnvelope(obs::Json::parse(body))->ok);

  // The queued connection gets a structured E0610, not a dropped socket.
  ASSERT_EQ(support::readFrame(queued.fd(), body, 1u << 20, 20'000), support::FrameStatus::Ok);
  std::optional<serve::ResponseEnvelope> qenv =
      serve::parseResponseEnvelope(obs::Json::parse(body));
  ASSERT_TRUE(qenv.has_value());
  EXPECT_FALSE(qenv->ok);
  EXPECT_EQ(qenv->errorCode, serve::kErrDraining);

  ts.server->waitDrained();
  EXPECT_LT(msSince(t0), 20'000);
  EXPECT_GE(ts.server->stats().connectionsDrained, 1u);
}

TEST(ServerTest, RemoteShutdownGatedByOption) {
  {
    TestServer ts;  // default: shutdown disabled
    serve::ResponseEnvelope env = envelope(rpc(ts, R"({"proto":1,"op":"shutdown"})"));
    EXPECT_FALSE(env.ok);
    EXPECT_EQ(env.errorCode, serve::kErrBadRequest);
    EXPECT_FALSE(ts.server->draining());
  }
  {
    serve::ServerOptions opts;
    opts.allowRemoteShutdown = true;
    TestServer ts(opts);
    serve::ResponseEnvelope env = envelope(rpc(ts, R"({"proto":1,"op":"shutdown"})"));
    EXPECT_TRUE(env.ok);
    ts.server->waitDrained();
    EXPECT_TRUE(ts.server->draining());
  }
}

TEST(ServerTest, EvictionMakesHashUnknown) {
  serve::ServerOptions opts;
  opts.cacheCapacity = 1;
  TestServer ts(opts);

  obs::Json creq = obs::Json::object();
  creq["proto"] = uint64_t{serve::kProtoMax};
  creq["op"] = "compile";
  creq["design"] = kCounterFir;
  std::optional<obs::Json> c1 = rpc(ts, creq.dump(0));
  ASSERT_TRUE(envelope(c1).ok);
  std::string counterHash = c1->at("design_hash").asStr();

  // Capacity 1: compiling a second design evicts the first...
  creq["design"] = gcdFir();
  ASSERT_TRUE(envelope(rpc(ts, creq.dump(0))).ok);
  obs::Json rreq = obs::Json::object();
  rreq["proto"] = uint64_t{serve::kProtoMax};
  rreq["op"] = "run";
  rreq["design_hash"] = counterHash;
  rreq["cycles"] = uint64_t{8};
  serve::ResponseEnvelope env = envelope(rpc(ts, rreq.dump(0)));
  EXPECT_FALSE(env.ok);
  EXPECT_EQ(env.errorCode, serve::kErrUnknownDesign);

  // ...and an explicit evict does the same for the survivor.
  std::string gcdHash = serve::designHash(gcdFir(), serve::RequestOptions{});
  obs::Json ereq = obs::Json::object();
  ereq["proto"] = uint64_t{serve::kProtoMax};
  ereq["op"] = "evict";
  ereq["design_hash"] = gcdHash;
  std::optional<obs::Json> eresp = rpc(ts, ereq.dump(0));
  ASSERT_TRUE(envelope(eresp).ok);
  EXPECT_TRUE(eresp->at("evicted").asBool());
  rreq["design_hash"] = gcdHash;
  EXPECT_EQ(envelope(rpc(ts, rreq.dump(0))).errorCode, serve::kErrUnknownDesign);
  EXPECT_GE(ts.server->stats().cache.evictions, 1u);
}

TEST(ServerTest, StatusReportsConfigurationAndStats) {
  serve::ServerOptions opts;
  opts.workers = 3;
  opts.queueCapacity = 7;
  TestServer ts(opts);
  ASSERT_TRUE(envelope(rpc(ts, R"({"proto":1,"op":"ping"})")).ok);
  std::optional<obs::Json> resp = rpc(ts, R"({"proto":1,"op":"status"})");
  ASSERT_TRUE(envelope(resp).ok);
  EXPECT_FALSE(resp->at("draining").asBool());
  EXPECT_EQ(resp->at("workers").asUInt(), 3u);
  EXPECT_EQ(resp->at("queue_capacity").asUInt(), 7u);
  EXPECT_GE(resp->at("stats").at("requests_served").asUInt(), 1u);
  EXPECT_FALSE(resp->at("chaos").asBool());
}

// --- chaos -----------------------------------------------------------------

// A pinned-seed campaign of mixed valid/hostile traffic against a chaos
// server. The invariant under fault injection is binary: every outcome is
// either a structured E06xx/ok response or a clean transport cut — never a
// hang, a garbage frame, or a dead daemon.
TEST(ChaosTest, CampaignYieldsOnlyStructuredResponsesOrCleanCuts) {
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.chaos.enabled = true;
  opts.chaos.seed = 20260808;
  opts.chaos.slowMs = 5;  // keep the campaign fast
  TestServer ts(opts);

  const int kCases = 120;
  int structured = 0, cuts = 0, injected = 0;
  for (int i = 0; i < kCases; i++) {
    std::string payload;
    switch (i % 5) {
      case 0: payload = R"({"proto":1,"op":"ping"})"; break;
      case 1: payload = runRequest(kCounterFir, 64, {{"en", 1}}).dump(0); break;
      case 2: payload = R"({"proto":1,"op":"status"})"; break;
      case 3: payload = R"({"proto":1,"op": not json)"; break;
      case 4: payload = R"({"proto":1,"op":"run","design_hash":"00112233445566778899aabbccddeeff","cycles":4})"; break;
    }
    std::optional<obs::Json> resp = rpc(ts, payload);
    if (!resp) {
      cuts++;  // chaos drop/disconnect: tolerated, must not kill the daemon
      continue;
    }
    std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
    ASSERT_TRUE(env.has_value()) << "case " << i << ": unstructured " << resp->dump(0);
    structured++;
    if (!env->ok && env->errorCode == serve::kErrInjectedFault) injected++;
  }
  EXPECT_GE(structured, kCases / 3) << "chaos ate nearly everything";
  EXPECT_GT(injected, 0) << "failProb 0.10 over 120 cases never fired";

  // Survival: the daemon still answers clean traffic (retry through drops).
  bool alive = false;
  for (int attempt = 0; attempt < 10 && !alive; attempt++) {
    std::optional<obs::Json> resp = rpc(ts, R"({"proto":1,"op":"ping"})");
    if (resp) {
      std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
      alive = env && env->ok;
    }
  }
  EXPECT_TRUE(alive) << "daemon unreachable after chaos campaign";
  EXPECT_GT(ts.server->stats().chaosInjected, 0u);
}

TEST(ChaosTest, PinnedSeedReplaysIdenticalFaultSchedule) {
  // Two servers, same seed: the same request sequence must see the same
  // per-connection fault decisions (the campaign debugging contract).
  auto faultSignature = [](uint64_t seed) {
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.chaos.enabled = true;
    opts.chaos.seed = seed;
    opts.chaos.slowMs = 1;
    TestServer ts(opts);
    std::string sig;
    for (int i = 0; i < 40; i++) {
      std::optional<obs::Json> resp = rpc(ts, R"({"proto":1,"op":"ping"})");
      if (!resp) {
        sig += 'C';  // cut
      } else {
        std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
        sig += (env && env->ok) ? 'O' : 'E';
      }
    }
    return sig;
  };
  std::string a = faultSignature(42);
  std::string b = faultSignature(42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, std::string(40, 'O')) << "chaos never fired at seed 42";
}

// --- shared farm deadline (FarmOptions::guard) ------------------------------

TEST(FarmDeadlineTest, SharedGuardStopsAllInstancesTogether) {
  std::shared_ptr<const sim::CompiledDesign> design = compileText(kCounterFir);

  support::ResourceLimits lim = support::ResourceLimits::unlimited();
  lim.wallDeadlineMs = 200;
  support::ResourceGuard guard(lim);

  core::FarmOptions fo;
  fo.workers = 2;
  fo.guard = &guard;
  fo.guardCheckInterval = 512;
  core::SimFarm farm(design, fo);

  // 4 instances x effectively-unbounded budgets against ONE 200ms wall
  // budget. With per-instance deadlines (the bug this guards against) the
  // batch would take ~4x the budget on 2 workers; with the shared guard
  // every instance dies within one check interval of the same moment.
  std::vector<core::FarmJob> jobs(4);
  for (size_t i = 0; i < jobs.size(); i++) {
    jobs[i].name = "j" + std::to_string(i);
    jobs[i].maxCycles = 4'000'000'000ull;
    jobs[i].init = [](sim::Engine& e) { e.poke("en", 1); };
  }
  Clock::time_point t0 = Clock::now();
  core::FarmReport report = farm.run(jobs);
  int64_t wallMs = msSince(t0);

  ASSERT_EQ(report.instances.size(), 4u);
  for (const core::FarmInstanceResult& r : report.instances) {
    EXPECT_FALSE(r.error.empty()) << r.name << " outlived the shared deadline";
    EXPECT_NE(r.error.find("E0504"), std::string::npos) << r.name << ": " << r.error;
  }
  // One shared budget, not 4 per-instance ones. The slack absorbs scheduler
  // noise and sanitizer overhead; the 4x-overshoot failure mode would be
  // >=800ms of simulation alone.
  EXPECT_LT(wallMs, 20'000);
  EXPECT_FALSE(report.allOk());
}

TEST(FarmDeadlineTest, GenerousSharedGuardDoesNotFalselyKill) {
  std::shared_ptr<const sim::CompiledDesign> design = compileText(kCounterFir);
  support::ResourceLimits lim = support::ResourceLimits::unlimited();
  lim.wallDeadlineMs = 60'000;
  support::ResourceGuard guard(lim);

  core::FarmOptions fo;
  fo.workers = 2;
  fo.guard = &guard;
  core::SimFarm farm(design, fo);

  std::vector<core::FarmJob> jobs(4);
  for (size_t i = 0; i < jobs.size(); i++) {
    jobs[i].name = "j" + std::to_string(i);
    jobs[i].maxCycles = 10'000;
  }
  core::FarmReport report = farm.run(jobs);
  EXPECT_TRUE(report.allOk());
  EXPECT_EQ(report.totalCycles, 40'000u);
}

TEST(FarmDeadlineTest, LaneFarmHonorsSharedGuard) {
  std::shared_ptr<const sim::CompiledDesign> design = compileText(kCounterFir);
  support::ResourceLimits lim = support::ResourceLimits::unlimited();
  lim.wallDeadlineMs = 200;
  support::ResourceGuard guard(lim);

  core::FarmOptions fo;
  fo.kind = sim::EngineKind::Lane;
  fo.engine.lanes = 4;
  fo.workers = 2;
  fo.guard = &guard;
  fo.guardCheckInterval = 512;
  core::SimFarm farm(design, fo);

  std::vector<core::FarmJob> jobs(8);
  for (size_t i = 0; i < jobs.size(); i++) {
    jobs[i].name = "lane" + std::to_string(i);
    jobs[i].maxCycles = 4'000'000'000ull;
  }
  Clock::time_point t0 = Clock::now();
  core::FarmReport report = farm.run(jobs);
  int64_t wallMs = msSince(t0);

  // Deadline-killed lanes must NOT fall back to scalar engines (a retry
  // would just burn the dead budget again, serially).
  for (const core::FarmInstanceResult& r : report.instances)
    EXPECT_NE(r.error.find("E0504"), std::string::npos) << r.name << ": " << r.error;
  EXPECT_LT(wallMs, 20'000);
}

}  // namespace

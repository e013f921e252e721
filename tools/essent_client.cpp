// essent_client — wire client for essentd (docs/DAEMON.md).
//
// One-shot mode builds a single request, sends it with retry/backoff, and
// pretty-prints the response. Campaign mode (--campaign N) replays a
// deterministic seeded mix of valid and malformed traffic and verifies the
// daemon's survival contract: every outcome is either a structured
// ok/E06xx response or a tolerated transport cut (chaos mode), and the
// daemon stays reachable throughout.
//
// Usage:
//   essent_client (--socket PATH | --tcp HOST:PORT) [options]
//
// Options:
//   --op OP               ping|compile|run|status|evict|shutdown (default ping)
//   --design FILE         FIRRTL source to send as "design"
//   --design-hash H       content address for run-by-hash / evict
//   --cycles N            run: tick budget
//   --batch N             run: farm instance count
//   --poke NAME=VALUE     run: input value (repeatable)
//   --engine K            full|event|ccss|lane
//   --cp N, --baseline, --lanes N   engine options
//   --sleep-ms N          ping test hook (server must run --test-hooks)
//   --retries N           transport retry attempts (default 3)
//   --backoff-ms N        initial retry backoff, doubled per attempt with
//                         jitter; E0609/E0610 responses honor the server's
//                         retry_after_ms hint instead (default 50)
//   --timeout-ms N        per-frame read timeout (default 30000)
//   --campaign N          chaos campaign with N cases
//   --seed S              campaign RNG seed (default 1)
//   --quiet               suppress the response body (envelope only)
//
// Exit codes:
//   0  ok response (campaign: every case structured, daemon alive)
//   1  daemon answered with an error response (one-shot mode)
//   2  usage error
//   3  transport failure after all retries (daemon unreachable/dead)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/protocol.h"
#include "support/socket.h"
#include "support/strutil.h"

using namespace essent;

namespace {

struct Args {
  std::string unixPath;
  std::string tcpHost;
  uint16_t tcpPort = 0;
  std::string op = "ping";
  std::string designFile;
  std::string designHash;
  uint64_t cycles = 0;
  uint32_t batch = 0;
  std::vector<std::pair<std::string, uint64_t>> pokes;
  std::string engine;
  uint32_t cp = 0;
  uint32_t lanes = 0;
  bool baseline = false;
  uint64_t sleepMs = 0;
  unsigned retries = 3;
  int64_t backoffMs = 50;
  int64_t timeoutMs = 30'000;
  uint64_t campaign = 0;
  uint64_t seed = 1;
  bool quiet = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "essent_client: %s\n", msg);
  std::fprintf(stderr,
               "usage: essent_client (--socket PATH | --tcp HOST:PORT)\n"
               "                     [--op ping|compile|run|status|evict|shutdown]\n"
               "                     [--design FILE] [--design-hash H] [--cycles N]\n"
               "                     [--batch N] [--poke NAME=VALUE]... [--engine K]\n"
               "                     [--cp N] [--lanes N] [--baseline]\n"
               "                     [--sleep-ms N] [--retries N] [--backoff-ms N]\n"
               "                     [--timeout-ms N] [--campaign N] [--seed S] [--quiet]\n"
               "exit codes: 0 ok; 1 error response; 2 usage; 3 transport failure\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(("missing value after " + arg).c_str());
      return argv[i];
    };
    if (arg == "--socket") a.unixPath = next();
    else if (arg == "--tcp") {
      std::string hp = next();
      size_t colon = hp.rfind(':');
      if (colon == std::string::npos) usage("--tcp expects HOST:PORT");
      a.tcpHost = hp.substr(0, colon);
      a.tcpPort = static_cast<uint16_t>(std::strtoul(hp.c_str() + colon + 1, nullptr, 0));
    } else if (arg == "--op") a.op = next();
    else if (arg == "--design") a.designFile = next();
    else if (arg == "--design-hash") a.designHash = next();
    else if (arg == "--cycles") a.cycles = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--batch")
      a.batch = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--poke") {
      std::string kv = next();
      size_t eq = kv.find('=');
      if (eq == std::string::npos) usage("--poke expects NAME=VALUE");
      a.pokes.emplace_back(kv.substr(0, eq), std::strtoull(kv.c_str() + eq + 1, nullptr, 0));
    } else if (arg == "--engine") a.engine = next();
    else if (arg == "--cp") a.cp = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--lanes")
      a.lanes = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--baseline") a.baseline = true;
    else if (arg == "--sleep-ms") a.sleepMs = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--retries")
      a.retries = static_cast<unsigned>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--backoff-ms") a.backoffMs = std::strtoll(next().c_str(), nullptr, 0);
    else if (arg == "--timeout-ms") a.timeoutMs = std::strtoll(next().c_str(), nullptr, 0);
    else if (arg == "--campaign") a.campaign = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--quiet") a.quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (a.unixPath.empty() && a.tcpHost.empty()) usage("no --socket or --tcp target");
  return a;
}

uint64_t nextRand(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

support::Socket connect(const Args& a) {
  if (!a.unixPath.empty()) return support::connectUnix(a.unixPath);
  return support::connectTcp(a.tcpHost, a.tcpPort);
}

// One framed round trip on a fresh connection. Returns nullopt on any
// transport-level failure (connect refusal, torn frame, timeout).
std::optional<obs::Json> roundTrip(const Args& a, const std::string& payload) {
  try {
    support::Socket conn = connect(a);
    // A write failure does NOT mean there is no response: a shed at the
    // door (E0609) or a drain refusal (E0610) is written and closed at
    // accept time, which can race our request write — the EPIPE arrives
    // while the structured error is already sitting in our receive
    // buffer. Read it anyway so the retry_after_ms hint isn't lost.
    bool wrote = support::writeFrame(conn.fd(), payload);
    std::string body;
    support::FrameStatus st =
        support::readFrame(conn.fd(), body, 64u << 20, a.timeoutMs);
    if (st != support::FrameStatus::Ok) return std::nullopt;
    (void)wrote;
    return obs::Json::parse(body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Retrying round trip: transport failures back off exponentially with
// jitter; E0609/E0610 responses honor the server's retry_after_ms hint.
// Returns nullopt when every attempt failed at the transport level.
std::optional<obs::Json> sendWithRetry(const Args& a, const obs::Json& doc,
                                       uint64_t& rngState) {
  std::string payload = doc.dump(0);
  int64_t backoff = std::max<int64_t>(1, a.backoffMs);
  for (unsigned attempt = 0;; attempt++) {
    std::optional<obs::Json> resp = roundTrip(a, payload);
    if (resp) {
      std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
      bool retryable =
          env && !env->ok &&
          (env->errorCode == serve::kErrOverloaded || env->errorCode == serve::kErrDraining);
      if (!retryable || attempt >= a.retries) return resp;
      int64_t wait = env->retryAfterMs > 0 ? env->retryAfterMs : backoff;
      wait += static_cast<int64_t>(nextRand(rngState) % 16);  // de-sync herd
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    } else {
      if (attempt >= a.retries) return std::nullopt;
      int64_t wait = backoff + static_cast<int64_t>(nextRand(rngState) % 16);
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
    backoff = std::min<int64_t>(backoff * 2, 2'000);
  }
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "essent_client: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

obs::Json buildRequest(const Args& a) {
  obs::Json doc = obs::Json::object();
  doc["proto"] = uint64_t{serve::kProtoMax};
  doc["op"] = a.op;
  if (!a.designFile.empty()) doc["design"] = readFileOrDie(a.designFile);
  if (!a.designHash.empty()) doc["design_hash"] = a.designHash;
  if (a.cycles > 0) doc["cycles"] = a.cycles;
  if (a.batch > 0) doc["batch"] = a.batch;
  if (a.sleepMs > 0) doc["sleep_ms"] = a.sleepMs;
  if (!a.pokes.empty()) {
    obs::Json pokes = obs::Json::object();
    for (const auto& [name, value] : a.pokes) pokes[name] = value;
    doc["pokes"] = std::move(pokes);
  }
  obs::Json optsDoc = obs::Json::object();
  if (!a.engine.empty()) optsDoc["engine"] = a.engine;
  if (a.cp > 0) optsDoc["cp"] = a.cp;
  if (a.lanes > 0) optsDoc["lanes"] = a.lanes;
  if (a.baseline) optsDoc["baseline"] = true;
  if (optsDoc.size() > 0) doc["options"] = std::move(optsDoc);
  return doc;
}

// --- chaos campaign --------------------------------------------------------

// Fallback design for campaign traffic when --design is not given.
const char* kCampaignDesign = R"(circuit Counter :
  module Counter :
    input clock : Clock
    input en : UInt<1>
    output out : UInt<8>

    reg c : UInt<8>, clock
    when en :
      c <= tail(add(c, UInt<8>(1)), 1)
    out <= c
)";

// Sends raw bytes (no framing correction) and tries to read one frame back.
// Used for the malformed cases; outcome is informational only — the real
// assertion is that the daemon still answers the NEXT structured request.
void sendRaw(const Args& a, const std::string& bytes, bool halfClose) {
  try {
    support::Socket conn = connect(a);
    support::sendAll(conn.fd(), bytes.data(), bytes.size());
    if (halfClose) conn.shutdownWrite();
    std::string body;
    support::readFrame(conn.fd(), body, 64u << 20, std::min<int64_t>(a.timeoutMs, 2'000));
  } catch (const std::exception&) {
  }
}

int runCampaign(const Args& a) {
  std::string design = a.designFile.empty() ? kCampaignDesign : readFileOrDie(a.designFile);
  uint64_t rng = a.seed;
  uint64_t structured = 0, transportCuts = 0, okCount = 0, errCount = 0;

  auto structuredProbe = [&](const obs::Json& doc) -> bool {
    // Retry through chaos drops: a dropped request is a transport cut, not
    // a protocol violation, but the daemon must still answer eventually.
    std::optional<obs::Json> resp = sendWithRetry(a, doc, rng);
    if (!resp) return false;
    std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
    if (!env) {
      std::fprintf(stderr, "essent_client: campaign: unparseable response envelope: %s\n",
                   resp->dump(0).c_str());
      std::exit(1);
    }
    structured++;
    (env->ok ? okCount : errCount)++;
    return true;
  };

  for (uint64_t i = 0; i < a.campaign; i++) {
    switch (nextRand(rng) % 10) {
      case 0: {  // valid ping
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "ping";
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      case 1: {  // valid run (cached after the first compile)
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "run";
        doc["design"] = design;
        doc["cycles"] = 16 + (nextRand(rng) % 64);
        obs::Json pokes = obs::Json::object();
        pokes["en"] = uint64_t{1};
        if (a.designFile.empty()) doc["pokes"] = std::move(pokes);
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      case 2: {  // valid compile
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "compile";
        doc["design"] = design;
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      case 3: {  // status
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "status";
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      case 4: {  // invalid JSON payload in a well-formed frame
        std::string junk = "{'op': ping";  // single quotes: not JSON
        uint32_t len = static_cast<uint32_t>(junk.size());
        std::string frame;
        frame.push_back(static_cast<char>(len >> 24));
        frame.push_back(static_cast<char>(len >> 16));
        frame.push_back(static_cast<char>(len >> 8));
        frame.push_back(static_cast<char>(len));
        frame += junk;
        sendRaw(a, frame, false);
        break;
      }
      case 5: {  // schema violations: unknown op / unknown field / bad type
        obs::Json doc = obs::Json::object();
        switch (nextRand(rng) % 3) {
          case 0: doc["op"] = "reticulate"; break;
          case 1: doc["op"] = "ping"; doc["frobnicate"] = true; break;
          default: doc["op"] = "run"; doc["design"] = design; doc["cycles"] = "ten"; break;
        }
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      case 6: {  // truncated frame: declare 512 bytes, deliver 7, half-close
        std::string frame;
        frame.push_back(0);
        frame.push_back(0);
        frame.push_back(2);
        frame.push_back(0);
        frame += "{\"op\":";
        sendRaw(a, frame, true);
        break;
      }
      case 7: {  // oversized length prefix (2 GiB claim)
        std::string frame;
        frame.push_back(0x7f);
        frame.push_back(static_cast<char>(0xff));
        frame.push_back(static_cast<char>(0xff));
        frame.push_back(static_cast<char>(0xff));
        sendRaw(a, frame, false);
        break;
      }
      case 8: {  // run by bogus hash
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "run";
        doc["design_hash"] = "00000000000000000000000000000000";
        doc["cycles"] = uint64_t{8};
        if (!structuredProbe(doc)) transportCuts++;
        break;
      }
      default: {  // mid-stream disconnect: send half a valid frame and bail
        obs::Json doc = obs::Json::object();
        doc["proto"] = uint64_t{serve::kProtoMax};
        doc["op"] = "ping";
        std::string payload = doc.dump(0);
        uint32_t len = static_cast<uint32_t>(payload.size());
        std::string frame;
        frame.push_back(static_cast<char>(len >> 24));
        frame.push_back(static_cast<char>(len >> 16));
        frame.push_back(static_cast<char>(len >> 8));
        frame.push_back(static_cast<char>(len));
        frame += payload.substr(0, payload.size() / 2);
        try {
          support::Socket conn = connect(a);
          support::sendAll(conn.fd(), frame.data(), frame.size());
        } catch (const std::exception&) {
        }
        break;
      }
    }
  }

  // Survival proof: after the whole campaign the daemon must still answer a
  // structured ping (retries absorb chaos drops).
  obs::Json ping = obs::Json::object();
  ping["proto"] = uint64_t{serve::kProtoMax};
  ping["op"] = "ping";
  if (!structuredProbe(ping)) {
    std::fprintf(stderr, "essent_client: campaign: daemon unreachable after %llu cases\n",
                 static_cast<unsigned long long>(a.campaign));
    return 3;
  }
  std::printf("campaign: %llu cases, %llu structured responses (%llu ok, %llu error), "
              "%llu transport cuts tolerated; daemon alive\n",
              static_cast<unsigned long long>(a.campaign),
              static_cast<unsigned long long>(structured),
              static_cast<unsigned long long>(okCount),
              static_cast<unsigned long long>(errCount),
              static_cast<unsigned long long>(transportCuts));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parseArgs(argc, argv);
  if (a.campaign > 0) return runCampaign(a);

  uint64_t rng = a.seed;
  obs::Json doc = buildRequest(a);
  std::optional<obs::Json> resp = sendWithRetry(a, doc, rng);
  if (!resp) {
    std::fprintf(stderr, "essent_client: no response after %u attempt(s)\n", a.retries + 1);
    return 3;
  }
  std::optional<serve::ResponseEnvelope> env = serve::parseResponseEnvelope(*resp);
  if (!env) {
    std::fprintf(stderr, "essent_client: unparseable response envelope:\n%s\n",
                 resp->dump(2).c_str());
    return 3;
  }
  if (!a.quiet) std::printf("%s\n", resp->dump(2).c_str());
  if (!env->ok) {
    std::fprintf(stderr, "essent_client: %s: %s\n", env->errorCode.c_str(),
                 env->errorMessage.c_str());
    return 1;
  }
  return 0;
}

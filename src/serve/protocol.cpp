#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "support/strutil.h"

namespace essent::serve {

namespace {

// SHA-256 (FIPS 180-4), self-contained. The design cache is shared across
// untrusted connections, so its content address must be collision-resistant
// against adversarial inputs — FNV-style mixing is trivially collidable.
struct Sha256 {
  uint32_t h[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                   0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  unsigned char buf[64];
  uint64_t total = 0;
  size_t fill = 0;

  static uint32_t rotr(uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }

  void block(const unsigned char* p) {
    static constexpr uint32_t K[64] = {
        0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
        0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
        0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
        0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
        0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
        0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
        0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
        0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
        0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
        0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
        0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};
    uint32_t w[64];
    for (int i = 0; i < 16; i++)
      w[i] = (static_cast<uint32_t>(p[4 * i]) << 24) |
             (static_cast<uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(p[4 * i + 2]) << 8) | static_cast<uint32_t>(p[4 * i + 3]);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = hh + S1 + ch + K[i] + w[i];
      uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = S0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }

  void update(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total += n;
    while (n > 0) {
      size_t take = std::min(n, sizeof(buf) - fill);
      std::memcpy(buf + fill, p, take);
      fill += take;
      p += take;
      n -= take;
      if (fill == sizeof(buf)) {
        block(buf);
        fill = 0;
      }
    }
  }

  void finish(unsigned char out[32]) {
    uint64_t bits = total * 8;
    unsigned char pad = 0x80;
    update(&pad, 1);
    unsigned char zero = 0;
    while (fill != 56) update(&zero, 1);
    unsigned char len[8];
    for (int i = 0; i < 8; i++) len[i] = static_cast<unsigned char>(bits >> (56 - 8 * i));
    update(len, 8);
    for (int i = 0; i < 8; i++) {
      out[4 * i] = static_cast<unsigned char>(h[i] >> 24);
      out[4 * i + 1] = static_cast<unsigned char>(h[i] >> 16);
      out[4 * i + 2] = static_cast<unsigned char>(h[i] >> 8);
      out[4 * i + 3] = static_cast<unsigned char>(h[i]);
    }
  }
};

bool isUIntNumber(const obs::Json& j) {
  if (!j.isNumber()) return false;
  if (j.kind() == obs::Json::Kind::Double) return false;  // exactness matters
  return j.kind() != obs::Json::Kind::Int || j.asInt() >= 0;
}

}  // namespace

const char* requestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::Ping: return "ping";
    case RequestOp::Compile: return "compile";
    case RequestOp::Run: return "run";
    case RequestOp::Status: return "status";
    case RequestOp::Evict: return "evict";
    case RequestOp::Shutdown: return "shutdown";
  }
  return "?";
}

std::string RequestOptions::cacheKey() const {
  return strfmt("cp=%u;baseline=%d", cp, baseline ? 1 : 0);
}

std::string designHash(const std::string& firrtlText, const RequestOptions& opts) {
  // Length-prefix the text so (text, key) pairs cannot collide by shifting
  // bytes across the boundary.
  std::string key = opts.cacheKey();
  std::string prefix = strfmt("%zu:", firrtlText.size());
  Sha256 sha;
  sha.update(prefix.data(), prefix.size());
  sha.update(firrtlText.data(), firrtlText.size());
  sha.update(key.data(), key.size());
  unsigned char digest[32];
  sha.finish(digest);
  std::string out;
  out.reserve(32);
  for (int i = 0; i < 16; i++) out += strfmt("%02x", digest[i]);
  return out;
}

std::optional<Request> parseRequest(const obs::Json& doc, std::string& code,
                                    std::string& message) {
  code = kErrBadRequest;
  if (!doc.isObject()) {
    message = "request must be a JSON object";
    return std::nullopt;
  }
  Request r;
  bool sawOp = false;
  bool sawProto = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "proto") {
      if (!isUIntNumber(value)) {
        message = strfmt("'proto' must be an integer (supported protocol versions: %u..%u)",
                         kProtoMin, kProtoMax);
        return std::nullopt;
      }
      uint64_t v = value.asUInt();
      if (v < kProtoMin || v > kProtoMax) {
        message = strfmt("unsupported protocol version %llu (supported: %u..%u)",
                         static_cast<unsigned long long>(v), kProtoMin, kProtoMax);
        return std::nullopt;
      }
      r.proto = static_cast<uint32_t>(v);
      sawProto = true;
    } else if (key == "op") {
      if (!value.isString()) {
        message = "'op' must be a string";
        return std::nullopt;
      }
      const std::string& op = value.asStr();
      if (op == "ping") r.op = RequestOp::Ping;
      else if (op == "compile") r.op = RequestOp::Compile;
      else if (op == "run") r.op = RequestOp::Run;
      else if (op == "status") r.op = RequestOp::Status;
      else if (op == "evict") r.op = RequestOp::Evict;
      else if (op == "shutdown") r.op = RequestOp::Shutdown;
      else {
        message = "unknown op '" + op + "'";
        return std::nullopt;
      }
      sawOp = true;
    } else if (key == "design") {
      if (!value.isString()) {
        message = "'design' must be a string of FIRRTL source";
        return std::nullopt;
      }
      r.designText = value.asStr();
    } else if (key == "design_hash") {
      if (!value.isString()) {
        message = "'design_hash' must be a hex string";
        return std::nullopt;
      }
      r.designHash = value.asStr();
    } else if (key == "cycles") {
      if (!isUIntNumber(value)) {
        message = "'cycles' must be a non-negative integer";
        return std::nullopt;
      }
      r.cycles = value.asUInt();
    } else if (key == "batch") {
      if (!isUIntNumber(value)) {
        message = "'batch' must be a non-negative integer";
        return std::nullopt;
      }
      uint64_t b = value.asUInt();
      if (b > 4096) {
        message = "'batch' beyond the supported maximum (4096)";
        return std::nullopt;
      }
      r.batch = static_cast<uint32_t>(b);
    } else if (key == "sleep_ms") {
      if (!isUIntNumber(value)) {
        message = "'sleep_ms' must be a non-negative integer";
        return std::nullopt;
      }
      r.sleepMs = value.asUInt();
    } else if (key == "pokes") {
      if (!value.isObject()) {
        message = "'pokes' must be an object of name -> integer";
        return std::nullopt;
      }
      for (const auto& [name, v] : value.members()) {
        if (!isUIntNumber(v)) {
          message = "poke '" + name + "' must be a non-negative integer";
          return std::nullopt;
        }
        r.pokes[name] = v.asUInt();
      }
    } else if (key == "options") {
      if (!value.isObject()) {
        message = "'options' must be an object";
        return std::nullopt;
      }
      for (const auto& [name, v] : value.members()) {
        if (name == "cp") {
          if (!isUIntNumber(v) || v.asUInt() == 0 || v.asUInt() > 1u << 20) {
            message = "options.cp must be a positive integer";
            return std::nullopt;
          }
          r.options.cp = static_cast<uint32_t>(v.asUInt());
        } else if (name == "baseline") {
          if (v.kind() != obs::Json::Kind::Bool) {
            message = "options.baseline must be a boolean";
            return std::nullopt;
          }
          r.options.baseline = v.asBool();
        } else if (name == "engine") {
          if (v.isString() && (v.asStr() == "par" || v.asStr() == "essent-ccss-par")) {
            r.options.kind = sim::EngineKind::Ccss;
            r.options.threadsIgnored = true;
          } else if (!v.isString() || !sim::parseEngineKind(v.asStr(), r.options.kind) ||
                     r.options.kind == sim::EngineKind::Codegen) {
            message = "options.engine must be one of full|event|ccss|lane";
            return std::nullopt;
          }
        } else if (name == "threads") {
          if (!isUIntNumber(v) || v.asUInt() > 256) {
            message = "options.threads must be an integer in [0, 256]";
            return std::nullopt;
          }
          if (v.asUInt() > 1) r.options.threadsIgnored = true;
        } else if (name == "lanes") {
          if (!isUIntNumber(v) || v.asUInt() > 64) {
            message = "options.lanes must be an integer in [0, 64]";
            return std::nullopt;
          }
          r.options.lanes = static_cast<unsigned>(v.asUInt());
        } else {
          message = "unknown options field '" + name + "'";
          return std::nullopt;
        }
      }
    } else {
      message = "unknown request field '" + key + "'";
      return std::nullopt;
    }
  }
  if (!sawProto) {
    message = strfmt("missing required field 'proto' (supported protocol versions: %u..%u)",
                     kProtoMin, kProtoMax);
    return std::nullopt;
  }
  if (!sawOp) {
    message = "missing required field 'op'";
    return std::nullopt;
  }
  // Op-specific requirements, checked here so handlers can assume them.
  if (r.op == RequestOp::Compile && r.designText.empty()) {
    message = "'compile' requires 'design' (FIRRTL source text)";
    return std::nullopt;
  }
  if (r.op == RequestOp::Run && r.designText.empty() && r.designHash.empty()) {
    message = "'run' requires 'design' or 'design_hash'";
    return std::nullopt;
  }
  if (r.op == RequestOp::Run && r.cycles == 0) {
    message = "'run' requires a positive 'cycles'";
    return std::nullopt;
  }
  if (r.op == RequestOp::Evict && r.designHash.empty()) {
    message = "'evict' requires 'design_hash'";
    return std::nullopt;
  }
  code.clear();
  message.clear();
  return r;
}

obs::Json okResponse(RequestOp op) {
  obs::Json doc = obs::Json::object();
  doc["ok"] = true;
  doc["proto"] = uint64_t{kProtoMax};
  doc["op"] = requestOpName(op);
  return doc;
}

obs::Json errorResponse(const std::string& code, const std::string& message,
                        int64_t retryAfterMs) {
  obs::Json err = obs::Json::object();
  err["code"] = code;
  err["message"] = message;
  if (retryAfterMs >= 0) err["retry_after_ms"] = retryAfterMs;
  obs::Json doc = obs::Json::object();
  doc["ok"] = false;
  doc["proto"] = uint64_t{kProtoMax};
  doc["error"] = std::move(err);
  return doc;
}

std::optional<ResponseEnvelope> parseResponseEnvelope(const obs::Json& doc) {
  if (!doc.isObject()) return std::nullopt;
  const obs::Json* ok = doc.find("ok");
  if (!ok || ok->kind() != obs::Json::Kind::Bool) return std::nullopt;
  ResponseEnvelope env;
  env.ok = ok->asBool();
  if (env.ok) return env;
  const obs::Json* err = doc.find("error");
  if (!err || !err->isObject()) return std::nullopt;
  const obs::Json* code = err->find("code");
  if (!code || !code->isString() || code->asStr().size() != 5 || code->asStr()[0] != 'E')
    return std::nullopt;
  env.errorCode = code->asStr();
  if (const obs::Json* msg = err->find("message"); msg && msg->isString())
    env.errorMessage = msg->asStr();
  if (const obs::Json* retry = err->find("retry_after_ms"); retry && retry->isNumber())
    env.retryAfterMs = retry->asInt();
  return env;
}

}  // namespace essent::serve

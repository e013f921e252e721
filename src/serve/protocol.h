// essentd wire protocol: request/response JSON documents inside
// length-prefixed frames (support/socket.h), plus the E06xx service error
// catalog.
//
// Frame   := uint32 big-endian payload length, then that many bytes of JSON.
// Request := {"proto": 1,
//             "op": "ping"|"compile"|"run"|"status"|"evict"|"shutdown", ...}
// Response:= {"ok": true, "proto": 1, "op": ..., ...}
//          | {"ok": false, "proto": 1, "error": {"code": "E06xx",
//             "message": ..., "retry_after_ms"?: N, "diagnostics"?: [...]}}
//
// Every request must carry "proto", the wire-protocol version it speaks
// (kProtoMin..kProtoMax, currently just 1). A missing or unsupported proto
// is E0604 with a message naming the supported range, so a version-skewed
// client learns exactly what the daemon speaks instead of tripping over an
// arbitrary later schema error. Responses echo the daemon's version.
//
// Parsing is strict: unknown top-level fields, missing required fields, and
// type mismatches are E0604 — hostile or version-skewed clients get a
// structured rejection, never undefined behaviour. The full schema catalog
// lives in docs/DAEMON.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/json.h"
#include "sim/engine_factory.h"

namespace essent::serve {

// --- E06xx service error catalog (docs/DIAGNOSTICS.md) -------------------
inline constexpr const char* kErrMalformedFrame = "E0601";  // truncated frame / stream
inline constexpr const char* kErrFrameTooLarge = "E0602";   // length prefix over ceiling
inline constexpr const char* kErrBadJson = "E0603";         // payload not valid JSON
inline constexpr const char* kErrBadRequest = "E0604";      // schema violation
inline constexpr const char* kErrDesignRejected = "E0605";  // front-end diagnostics
inline constexpr const char* kErrResourceLimit = "E0606";   // wraps E0501–E0503
inline constexpr const char* kErrDeadline = "E0607";        // wraps E0504
inline constexpr const char* kErrSimFailed = "E0608";       // engine/internal failure
inline constexpr const char* kErrOverloaded = "E0609";      // load shed, retry_after_ms set
inline constexpr const char* kErrDraining = "E0610";        // graceful shutdown in progress
inline constexpr const char* kErrUnknownDesign = "E0611";   // design_hash not in cache
inline constexpr const char* kErrInjectedFault = "E0612";   // chaos-mode injected failure

// Supported wire-protocol version range. Bump kProtoMax when the schema
// gains a version; raise kProtoMin only when dropping support for one.
inline constexpr uint32_t kProtoMin = 1;
inline constexpr uint32_t kProtoMax = 1;

enum class RequestOp { Ping, Compile, Run, Status, Evict, Shutdown };

const char* requestOpName(RequestOp op);

// Per-request engine/compile options. Everything here participates in the
// design-cache key (a design compiled --baseline is a different artifact
// than the optimized build of the same text).
struct RequestOptions {
  uint32_t cp = 8;            // partitioner small-threshold C_p
  bool baseline = false;      // disable const-prop/CSE/DCE
  sim::EngineKind kind = sim::EngineKind::Ccss;
  // Set by engine "par" / "essent-ccss-par" or options.threads > 1, which
  // proto 1 still accepts from the removed intra-design threaded engine:
  // the run is the serial CCSS engine with a W0601 warning.
  bool threadsIgnored = false;
  unsigned lanes = 0;         // Lane engine width (0 = engine default)

  // Canonical cache-key fragment, stable across field reordering.
  std::string cacheKey() const;
};

struct Request {
  uint32_t proto = kProtoMax;  // wire version the client declared
  RequestOp op = RequestOp::Ping;
  std::string designText;     // FIRRTL source ("design"); empty if by hash
  std::string designHash;     // content address ("design_hash")
  RequestOptions options;
  uint64_t cycles = 0;        // run: tick budget
  uint32_t batch = 0;         // run: farm instance count (0 = solo)
  std::map<std::string, uint64_t> pokes;  // run: input name -> value
  uint64_t sleepMs = 0;       // test hook (ping only, gated by the server)
};

// Strict request decode. Returns nullopt and fills code/message on any
// schema violation (the code is kErrBadRequest except where a more precise
// one applies).
std::optional<Request> parseRequest(const obs::Json& doc, std::string& code,
                                    std::string& message);

// Response builders. Every daemon reply goes through one of these so the
// wire shape can never drift from the documented schema.
obs::Json okResponse(RequestOp op);
obs::Json errorResponse(const std::string& code, const std::string& message,
                        int64_t retryAfterMs = -1);

// Reads "ok" / "error.code" out of a response document; tolerant of extra
// fields but strict about the envelope (used by the client and the chaos
// campaign validator).
struct ResponseEnvelope {
  bool ok = false;
  std::string errorCode;     // empty when ok
  std::string errorMessage;  // empty when ok
  int64_t retryAfterMs = -1; // from error.retry_after_ms when present
};
std::optional<ResponseEnvelope> parseResponseEnvelope(const obs::Json& doc);

// Content address of (firrtl text, options): SHA-256 truncated to 128 bits,
// rendered as 32 hex chars. The cache this keys is shared across untrusted
// connections, so collision resistance against adversarial inputs is part
// of the contract — a non-cryptographic hash would let one client craft a
// design that serves under another design's address. The server never
// trusts a client-supplied design_hash as a cache key: when text is
// present the hash is recomputed and a mismatch is rejected (E0604).
std::string designHash(const std::string& firrtlText, const RequestOptions& opts);

}  // namespace essent::serve

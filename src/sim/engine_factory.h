// The single public way to construct a simulation engine.
//
// sim::makeEngine(kind, design, options) replaces the five per-engine
// constructors: it resolves the engine kind, builds (or fetches from the
// design's extension cache) the kind-specific immutable structure, and
// returns a ready engine that owns only its mutable state. Every tool in
// the repository — essentc, essent_fuzz, the benches, the harness-based
// tests — constructs engines through it, so a new backend only has to be
// added here to become reachable everywhere (docs/API.md has the policy).
//
// Layering note: this header lives in sim/ (it is part of the stable
// engine interface, re-exported as <essent/engine.h>), but makeEngine's
// definition lives in the core library, which provides the CCSS backends.
// Link against essent_core (or anything that depends on it) to use it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace essent::sim {

// Every execution path a design can be simulated through. The first four
// are in-process interpreters constructible via makeEngine; Codegen is the
// ahead-of-time compiled simulator (codegen::emitCpp + host toolchain),
// which runs out of process — the fuzz oracle and essentc --compile-run
// drive it, and makeEngine rejects it with std::invalid_argument.
//
// Lane is the SIMD instance-parallel engine (core::LaneEngine): it
// simulates `EngineOptions::lanes` copies of the design in one
// structure-of-arrays arena; through makeEngine it surfaces as a scalar
// engine that broadcasts inputs to every lane (core::LaneBroadcastEngine),
// exercising the full SIMD path while staying bit-identical to a solo run.
enum class EngineKind : uint8_t { FullCycle, EventDriven, Ccss, Lane, Codegen };

// W0601 message for a request of intra-design threads (essentc's solo
// --threads N > 1, the daemon's proto-1 `par` engine and options.threads):
// every engine runs one instance on one thread.
inline constexpr const char kSerialCcssFallback[] =
    "intra-design threading was removed; falling back to serial CCSS engine";

// Canonical short name: "full" / "event" / "ccss" / "lane" / "codegen".
// These are the tokens every CLI accepts and prints.
const char* engineKindName(EngineKind k);

// Long descriptive name, matching Engine::name() for the in-process kinds:
// "full-cycle" / "event-driven" / "essent-ccss" / "essent-lane" / "codegen".
const char* engineKindLongName(EngineKind k);

// Parses a kind token — canonical short names and the long aliases above —
// shared by essentc, essent_fuzz and essentd so the tools can never drift
// apart. Returns false on unknown tokens.
bool parseEngineKind(const std::string& token, EngineKind& out);

// Every kind, in a stable order (FullCycle first: the oracle uses the
// first entry as its reference engine).
std::vector<EngineKind> allEngineKinds();

// The four kinds makeEngine can construct (everything except Codegen).
std::vector<EngineKind> inProcessEngineKinds();

// "full|event|ccss|lane|codegen" — for usage strings.
std::string engineKindList();

// Options honored by makeEngine. Plain fields rather than the core-layer
// option structs so this header stays dependency-free; the factory maps
// them onto core::ScheduleOptions for the CCSS kinds. Every engine runs
// one instance on one thread; for throughput run instances in parallel
// (core::SimFarm workers, EngineKind::Lane).
struct EngineOptions {
  // Partitioner C_p small-threshold (paper §IV) for the CCSS kinds.
  uint32_t partitionSmallThreshold = 8;
  // State-element update elision (paper §III-B1) for the CCSS kinds.
  bool stateElision = true;
  // SIMD lanes for EngineKind::Lane (clamped to [1, 64]). Ignored by the
  // other kinds.
  unsigned lanes = 4;
  // Enable per-partition runtime profiling (CCSS kinds only).
  bool profiling = false;
  // Activity-timeline bucket width in cycles when profiling is on.
  uint32_t profileWindow = 256;
};

// Constructs an engine of `kind` sharing `design`'s compiled structure;
// the instance owns only its mutable state, so any number of engines can
// be created from one CompiledDesign (see core::SimFarm). Kind-specific
// derived structure (CCSS schedule, event groups, hot-op stream) is built
// once per (design, options) through the design's extension cache.
// Throws std::invalid_argument for EngineKind::Codegen.
std::unique_ptr<Engine> makeEngine(EngineKind kind,
                                   std::shared_ptr<const CompiledDesign> design,
                                   const EngineOptions& opts = {});

// Convenience overload: compiles a private CompiledDesign from `ir` first.
// Prefer the shared-design overload when constructing more than one engine.
std::unique_ptr<Engine> makeEngine(EngineKind kind, const SimIR& ir,
                                   const EngineOptions& opts = {});

}  // namespace essent::sim

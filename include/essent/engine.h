// ESSENT public API — engine construction and simulation.
//
// This is the stable entry point for embedding the simulator: compile a
// design once (sim::compileDesign, see <essent/compile.h>), then construct
// any number of engines from it with sim::makeEngine. Everything
// reachable from the include/essent/ headers follows the compatibility
// policy in docs/API.md; internal headers (src/**) may change freely
// between releases.
//
//   #include <essent/compile.h>
//   #include <essent/engine.h>
//   auto design = essent::sim::compileDesign(firrtlText);
//   auto eng = essent::sim::makeEngine(essent::sim::EngineKind::Ccss, design);
//   eng->poke("en", 1);
//   eng->tick();
#pragma once

#include "core/activity_engine.h"    // ActivityEngine (CCSS) + CompiledCcss
#include "core/lane_engine.h"        // LaneEngine + LaneBroadcastEngine (SIMD lanes)
#include "sim/compile.h"             // compileDesign: FIRRTL text -> CompiledDesign
#include "sim/engine.h"              // Engine, CompiledDesign, EngineStats
#include "sim/engine_factory.h"      // EngineKind, EngineOptions, makeEngine
#include "sim/event_driven.h"        // EventDrivenEngine
#include "sim/full_cycle.h"          // FullCycleEngine

// sim::makeEngine definition. Lives in the core library because the CCSS
// backend (ActivityEngine) does; the declaration stays in
// sim/engine_factory.h as part of the stable engine interface. Also home of
// the deprecated parallel-engine spellings (core/parallel_engine.h), which
// all build the serial ActivityEngine.
#include <algorithm>
#include <stdexcept>

#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "core/parallel_engine.h"
#include "sim/engine_factory.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"

#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace essent::sim {

namespace {

core::ScheduleOptions scheduleOptionsFrom(const EngineOptions& opts) {
  core::ScheduleOptions so;
  so.partition.smallThreshold = opts.partitionSmallThreshold;
  so.stateElision = opts.stateElision;
  return so;
}

void applyProfiling(Engine& eng, const EngineOptions& opts) {
  if (!opts.profiling) return;
  if (auto* act = dynamic_cast<core::ActivityEngine*>(&eng)) {
    act->setProfileWindow(opts.profileWindow);
    act->setProfiling(true);
  }
}

}  // namespace

std::unique_ptr<Engine> makeEngine(EngineKind kind,
                                   std::shared_ptr<const CompiledDesign> design,
                                   const EngineOptions& opts) {
  std::unique_ptr<Engine> eng;
  switch (kind) {
    case EngineKind::FullCycle:
      eng = std::make_unique<FullCycleEngine>(std::move(design));
      break;
    case EngineKind::EventDriven:
      eng = std::make_unique<EventDrivenEngine>(std::move(design));
      break;
    case EngineKind::Ccss:
    case EngineKind::CcssPar:  // deprecated alias
      eng = std::make_unique<core::ActivityEngine>(
          core::CompiledCcss::get(design, scheduleOptionsFrom(opts)));
      if (opts.warnings && (kind == EngineKind::CcssPar || opts.threads > 1) &&
          std::find(opts.warnings->begin(), opts.warnings->end(), kSerialCcssFallback) ==
              opts.warnings->end())
        opts.warnings->push_back(kSerialCcssFallback);
      break;
    case EngineKind::Lane: {
      const unsigned lanes = opts.lanes < 1 ? 1 : (opts.lanes > 64 ? 64 : opts.lanes);
      eng = std::make_unique<core::LaneBroadcastEngine>(
          core::CompiledCcss::get(design, scheduleOptionsFrom(opts)), lanes);
      break;
    }
    case EngineKind::Codegen:
      throw std::invalid_argument(
          "engine kind 'codegen' is the out-of-process compiled simulator "
          "(codegen::emitCpp); it cannot be constructed by sim::makeEngine");
  }
  applyProfiling(*eng, opts);
  return eng;
}

std::unique_ptr<Engine> makeEngine(EngineKind kind, const SimIR& ir, const EngineOptions& opts) {
  return makeEngine(kind, CompiledDesign::compile(ir), opts);
}

}  // namespace essent::sim

namespace essent::core {

std::unique_ptr<ActivityEngine> makeCcssEngine(std::shared_ptr<const CompiledCcss> ccss,
                                               unsigned threads,
                                               std::vector<std::string>* warnings) {
  if (warnings && threads > 1) warnings->push_back(sim::kSerialCcssFallback);
  return std::make_unique<ActivityEngine>(std::move(ccss));
}

std::unique_ptr<ActivityEngine> makeCcssEngine(
    std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts,
    unsigned threads, std::vector<std::string>* warnings) {
  return makeCcssEngine(CompiledCcss::get(design, opts), threads, warnings);
}

std::unique_ptr<ActivityEngine> makeCcssEngine(const sim::SimIR& ir,
                                               const ScheduleOptions& opts, unsigned threads,
                                               std::vector<std::string>* warnings) {
  return makeCcssEngine(sim::CompiledDesign::compile(ir), opts, threads, warnings);
}

}  // namespace essent::core

// Deprecated spellings of the removed intra-design parallel CCSS engine,
// kept for one release of source compatibility and deleted by the next
// release that changes include/essent/ (docs/API.md §4). Each one builds
// the serial ActivityEngine, which the parallel engine matched bit for bit
// and counter for counter. For more throughput, run instances in
// parallel: core::SimFarm or EngineKind::Lane.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/activity_engine.h"

namespace essent::core {

class [[deprecated("use core::ActivityEngine; intra-design threading was removed")]]
ParallelActivityEngine : public ActivityEngine {
 public:
  // `threads` is ignored: the engine runs the serial CCSS sweep.
  ParallelActivityEngine(std::shared_ptr<const CompiledCcss> ccss, unsigned /*threads*/)
      : ActivityEngine(std::move(ccss)) {}
};

// Each overload returns the serial ActivityEngine; `threads` > 1 appends
// the W0601 fallback message (sim::kSerialCcssFallback) to `warnings`.
[[deprecated("use sim::makeEngine(EngineKind::Ccss, ...)")]]
std::unique_ptr<ActivityEngine> makeCcssEngine(const sim::SimIR& ir, const ScheduleOptions& opts,
                                               unsigned threads,
                                               std::vector<std::string>* warnings = nullptr);
[[deprecated("use sim::makeEngine(EngineKind::Ccss, ...)")]]
std::unique_ptr<ActivityEngine> makeCcssEngine(
    std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts,
    unsigned threads, std::vector<std::string>* warnings = nullptr);
[[deprecated("use std::make_unique<core::ActivityEngine>(ccss)")]]
std::unique_ptr<ActivityEngine> makeCcssEngine(std::shared_ptr<const CompiledCcss> ccss,
                                               unsigned threads,
                                               std::vector<std::string>* warnings = nullptr);

}  // namespace essent::core

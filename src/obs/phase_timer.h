// RAII wall-clock phase timers for the compile flow. Each pipeline pass
// (parse, lower, build-ir, netlist, mffc, merge phases, schedule, codegen)
// wraps itself in a ScopedPhaseTimer, which records the elapsed nanoseconds
// into the global metrics registry as histogram "phase.<name>_ns" — so any
// tool can attribute where compile time went (count, sum, p50/p99 per
// phase) without threading a context object through every layer.
//
// Recording happens once per phase invocation (two steady_clock reads, one
// mutex-guarded instrument lookup and a few relaxed atomic adds), which is
// noise next to the passes being timed — the timers stay on
// unconditionally.
#pragma once

#include <chrono>

namespace essent::obs {

class ScopedPhaseTimer {
 public:
  // `phase` must outlive the timer; string literals are the intended use.
  explicit ScopedPhaseTimer(const char* phase)
      : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace essent::obs

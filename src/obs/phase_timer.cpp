#include "obs/phase_timer.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace essent::obs {

ScopedPhaseTimer::~ScopedPhaseTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  // Existing phase timers double as trace spans, so compile phases land on
  // the timeline without re-instrumenting every call site.
  if (TraceSession* s = TraceSession::current())
    s->complete(phase_, s->toNs(start_), TraceCat::Busy);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  MetricsRegistry::global()
      .histogram(std::string("phase.") + phase_ + "_ns")
      .record(static_cast<uint64_t>(ns));
}

}  // namespace essent::obs

// Low-overhead execution tracing: per-thread ring-buffered event recording
// that serializes to Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and feeds a post-run attribution report (per-thread
// busy/idle/barrier fractions).
//
// Design constraints, in priority order:
//  1. Disabled-by-default recording costs one relaxed/acquire load of a
//     global pointer and a branch — no clock read, no allocation, no lock.
//     TraceSpan and the trace*() helpers compile to branch-on-nullptr when
//     no session is installed, so tier-1 throughput paths are unaffected.
//  2. Recording is allocation-free and lock-free on the hot path: each
//     thread owns a fixed-capacity event ring (acquired once through a
//     thread-local cache; the only mutex is on first-touch registration).
//     When a ring fills, the oldest events are overwritten (flight-recorder
//     semantics) and the drop count is reported; the busy/barrier
//     nanosecond totals used by the attribution report accumulate outside
//     the ring, so fractions stay exact even after wraps.
//  3. Reading (toJson / summary / snapshot) requires quiescence: every
//     recording thread must have synchronized with the reader since its
//     last event (a ThreadPool fork/join, a thread join, or a farm run
//     returning all provide this). The session must outlive any thread
//     that may still record into it.
//
// Event names and arg keys are `const char*` with static storage duration
// (string literals) — the ring stores the pointers, never copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace essent::obs {

// How much of the execution to record. Each level includes the previous:
//   phase     — compile phases, subprocess/watchdog events, farm instance
//               lifecycle; a handful of events per run.
//   wave      — + thread-pool work/join/wait spans per worker per fork and
//               per-tick engine spans; the attribution report needs this.
//   partition — + one span per partition evaluation (high volume; the ring
//               keeps the most recent window).
enum class TraceDetail : uint8_t { Phase = 0, Wave = 1, Partition = 2 };

const char* traceDetailName(TraceDetail d);
bool parseTraceDetail(const std::string& s, TraceDetail& out);

// Attribution category of a duration span. Only None-category spans may
// nest inside categorized spans (and vice versa): the busy/barrier totals
// are plain sums, so categorized spans on one thread must be disjoint.
//   None    — structural detail, excluded from attribution.
//   Busy    — doing simulation/compilation work.
//   Barrier — waiting at a fork/join boundary for other lanes.
enum class TraceCat : uint8_t { None = 0, Busy = 1, Barrier = 2 };

struct TraceEvent {
  const char* name = nullptr;     // static string
  const char* argName = nullptr;  // static string; nullptr = no arg
  uint64_t tsNs = 0;              // ns since session epoch
  uint64_t durNs = 0;             // 'X' events only
  uint64_t value = 0;             // counter value / instant or span arg
  char ph = 'X';                  // 'X' complete, 'i' instant, 'C' counter
  TraceCat cat = TraceCat::None;
};

struct TraceOptions {
  TraceDetail detail = TraceDetail::Wave;
  size_t ringCapacity = 1 << 16;  // events retained per thread
};

// Per-thread attribution summary; fractions are of the whole session
// window, so busy + barrier + idle == 1 per thread by construction.
struct TraceThreadSummary {
  uint32_t tid = 0;
  std::string name;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t busyNs = 0;
  uint64_t barrierNs = 0;
  uint64_t idleNs = 0;
  double busyFrac = 0.0;
  double barrierFrac = 0.0;
  double idleFrac = 0.0;
};

struct TraceSummary {
  uint64_t windowNs = 0;  // session epoch -> last recorded event
  uint64_t events = 0;
  uint64_t dropped = 0;
  // True when any ring overwrote events (flight-recorder wrap): the
  // busy/barrier/idle fractions stay exact (they accumulate outside the
  // ring), but the trace itself covers only the retained window.
  bool truncated = false;
  std::vector<TraceThreadSummary> threads;

  Json toJson() const;        // the `parallel` section of --stats-json
  std::string render() const; // the --trace-summary stdout table
};

class TraceBuffer;

class TraceSession {
 public:
  explicit TraceSession(TraceOptions opts = {});
  ~TraceSession();  // uninstalls itself if still current

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Makes this session the process-wide recording target. One session may
  // be current at a time; installing replaces the previous one.
  void install();
  void uninstall();  // no-op if not current

  static TraceSession* current();

  TraceDetail detail() const { return opts_.detail; }
  bool wants(TraceDetail d) const { return opts_.detail >= d; }

  // Monotonic ns since session construction.
  uint64_t nowNs() const;
  // Converts a steady_clock point to session-relative ns (clamped to 0 for
  // points before the epoch).
  uint64_t toNs(std::chrono::steady_clock::time_point tp) const;

  // --- Recording (hot path; call only on a non-null current()). ---
  void complete(const char* name, uint64_t beginNs, TraceCat cat = TraceCat::None,
                const char* argName = nullptr, uint64_t value = 0);
  void instant(const char* name, const char* argName = nullptr, uint64_t value = 0);
  void counter(const char* name, uint64_t value);
  // Labels the calling thread in the emitted trace (first caller wins);
  // slow path, may allocate.
  void nameThread(const std::string& name);

  // --- Reporting (requires quiescence; see file header). ---
  uint64_t eventCount() const;
  uint64_t droppedCount() const;

  struct ThreadSnapshot {
    uint32_t tid = 0;
    std::string name;
    uint64_t dropped = 0;
    uint64_t busyNs = 0;
    uint64_t barrierNs = 0;
    std::vector<TraceEvent> events;  // oldest retained -> newest
  };
  std::vector<ThreadSnapshot> snapshot() const;

  // Chrome trace-event JSON object: {"traceEvents": [...], ...}. Events
  // carry pid 1 and the session-assigned tid; thread names emit as 'M'
  // metadata events.
  Json toJson() const;
  TraceSummary summary() const;

 private:
  TraceBuffer& buffer();

  TraceOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t generation_;  // process-unique; keys the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

namespace trace_detail {
extern std::atomic<TraceSession*> g_current;
// True while the calling thread is inside a categorized ThreadPool work
// span; engine-level spans downgrade to TraceCat::None so attribution
// sums stay disjoint (see TraceCat).
bool inPooledWork();
void setInPooledWork(bool in);
}  // namespace trace_detail

inline TraceSession* TraceSession::current() {
  return trace_detail::g_current.load(std::memory_order_acquire);
}

// RAII duration span. When no session is installed (or the session's
// detail is below `minDetail`) construction is a load + branch and the
// destructor a branch — nothing else.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, TraceCat cat = TraceCat::None,
                     TraceDetail minDetail = TraceDetail::Phase,
                     const char* argName = nullptr, uint64_t value = 0)
      : name_(name), argName_(argName), value_(value), cat_(cat) {
    s_ = TraceSession::current();
    if (s_ && s_->wants(minDetail))
      t0_ = s_->nowNs();
    else
      s_ = nullptr;
  }
  ~TraceSpan() {
    if (s_) s_->complete(name_, t0_, cat_, argName_, value_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSession* s_;
  const char* name_;
  const char* argName_;
  uint64_t value_;
  uint64_t t0_ = 0;
  TraceCat cat_;
};

inline void traceInstant(const char* name, const char* argName = nullptr,
                         uint64_t value = 0,
                         TraceDetail minDetail = TraceDetail::Phase) {
  if (TraceSession* s = TraceSession::current())
    if (s->wants(minDetail)) s->instant(name, argName, value);
}

inline void traceCounter(const char* name, uint64_t value,
                         TraceDetail minDetail = TraceDetail::Wave) {
  if (TraceSession* s = TraceSession::current())
    if (s->wants(minDetail)) s->counter(name, value);
}

}  // namespace essent::obs

#include "obs/trace.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace essent::obs {

namespace {

// obs sits below every other library, so no support::strfmt here.
__attribute__((format(printf, 1, 2)))
std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  int n = vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  if (n < 0) return {};
  return std::string(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

namespace trace_detail {

std::atomic<TraceSession*> g_current{nullptr};

namespace {
thread_local bool t_inPooledWork = false;
}

bool inPooledWork() { return t_inPooledWork; }
void setInPooledWork(bool in) { t_inPooledWork = in; }

}  // namespace trace_detail

const char* traceDetailName(TraceDetail d) {
  switch (d) {
    case TraceDetail::Phase: return "phase";
    case TraceDetail::Wave: return "wave";
    case TraceDetail::Partition: return "partition";
  }
  return "?";
}

bool parseTraceDetail(const std::string& s, TraceDetail& out) {
  if (s == "phase") out = TraceDetail::Phase;
  else if (s == "wave") out = TraceDetail::Wave;
  else if (s == "partition") out = TraceDetail::Partition;
  else return false;
  return true;
}

// One per recording thread, owned by the session, written only by the
// owning thread. The ring is preallocated at registration; record() is
// plain stores + increments. The category ns totals live outside the ring
// so attribution survives wraps.
class TraceBuffer {
 public:
  TraceBuffer(uint32_t tid, size_t capacity)
      : tid_(tid), capacity_(capacity == 0 ? 1 : capacity) {
    ring_.resize(capacity_);
  }

  void record(const TraceEvent& ev) {
    ring_[recorded_ % capacity_] = ev;
    recorded_++;
    if (ev.ph == 'X') catNs_[static_cast<size_t>(ev.cat)] += ev.durNs;
    uint64_t end = ev.tsNs + ev.durNs;
    if (end > lastTsNs_) lastTsNs_ = end;
  }

 private:
  friend class TraceSession;

  uint32_t tid_;
  size_t capacity_;
  std::string name_;
  std::vector<TraceEvent> ring_;
  uint64_t recorded_ = 0;
  uint64_t catNs_[3] = {0, 0, 0};  // indexed by TraceCat
  uint64_t lastTsNs_ = 0;
};

namespace {

// Process-unique session generation, keying the thread-local buffer cache
// so a stale entry can never alias a later session at the same address.
std::atomic<uint64_t> g_generation{1};

struct BufferCache {
  uint64_t generation = 0;
  TraceBuffer* buffer = nullptr;
};
thread_local BufferCache t_cache;

}  // namespace

TraceSession::TraceSession(TraceOptions opts)
    : opts_(opts),
      epoch_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed)) {}

TraceSession::~TraceSession() { uninstall(); }

void TraceSession::install() {
  trace_detail::g_current.store(this, std::memory_order_release);
}

void TraceSession::uninstall() {
  TraceSession* expected = this;
  trace_detail::g_current.compare_exchange_strong(expected, nullptr,
                                                  std::memory_order_acq_rel);
}

uint64_t TraceSession::nowNs() const {
  return toNs(std::chrono::steady_clock::now());
}

uint64_t TraceSession::toNs(std::chrono::steady_clock::time_point tp) const {
  if (tp <= epoch_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count());
}

TraceBuffer& TraceSession::buffer() {
  if (t_cache.generation == generation_) return *t_cache.buffer;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(
      static_cast<uint32_t>(buffers_.size()), opts_.ringCapacity));
  t_cache = {generation_, buffers_.back().get()};
  return *t_cache.buffer;
}

void TraceSession::complete(const char* name, uint64_t beginNs, TraceCat cat,
                            const char* argName, uint64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.argName = argName;
  ev.tsNs = beginNs;
  uint64_t now = nowNs();
  ev.durNs = now > beginNs ? now - beginNs : 0;
  ev.value = value;
  ev.ph = 'X';
  ev.cat = cat;
  buffer().record(ev);
}

void TraceSession::instant(const char* name, const char* argName, uint64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.argName = argName;
  ev.tsNs = nowNs();
  ev.value = value;
  ev.ph = 'i';
  buffer().record(ev);
}

void TraceSession::counter(const char* name, uint64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.tsNs = nowNs();
  ev.value = value;
  ev.ph = 'C';
  buffer().record(ev);
}

void TraceSession::nameThread(const std::string& name) {
  TraceBuffer& b = buffer();
  if (b.name_.empty()) b.name_ = name;
}

uint64_t TraceSession::eventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->recorded_;
  return n;
}

uint64_t TraceSession::droppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_)
    if (b->recorded_ > b->capacity_) n += b->recorded_ - b->capacity_;
  return n;
}

std::vector<TraceSession::ThreadSnapshot> TraceSession::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSnapshot> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    ThreadSnapshot ts;
    ts.tid = b->tid_;
    ts.name = b->name_;
    ts.busyNs = b->catNs_[static_cast<size_t>(TraceCat::Busy)];
    ts.barrierNs = b->catNs_[static_cast<size_t>(TraceCat::Barrier)];
    size_t kept = static_cast<size_t>(std::min<uint64_t>(b->recorded_, b->capacity_));
    ts.dropped = b->recorded_ - kept;
    ts.events.reserve(kept);
    // Oldest retained first: after a wrap the ring's logical start is the
    // next overwrite position.
    size_t start = b->recorded_ > b->capacity_
                       ? static_cast<size_t>(b->recorded_ % b->capacity_)
                       : 0;
    for (size_t i = 0; i < kept; i++) ts.events.push_back(b->ring_[(start + i) % b->capacity_]);
    out.push_back(std::move(ts));
  }
  return out;
}

Json TraceSession::toJson() const {
  std::vector<ThreadSnapshot> snaps = snapshot();
  Json events = Json::array();
  for (const ThreadSnapshot& ts : snaps) {
    // Thread-name metadata so Perfetto labels the tracks.
    Json meta = Json::object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = ts.tid;
    Json margs = Json::object();
    margs["name"] = ts.name.empty() ? "thread-" + std::to_string(ts.tid) : ts.name;
    meta["args"] = std::move(margs);
    events.push(std::move(meta));
  }
  // Chrome's ts/dur unit is microseconds; doubles keep sub-us precision.
  for (const ThreadSnapshot& ts : snaps) {
    for (const TraceEvent& ev : ts.events) {
      Json e = Json::object();
      e["name"] = ev.name;
      e["ph"] = std::string(1, ev.ph);
      e["ts"] = static_cast<double>(ev.tsNs) / 1000.0;
      if (ev.ph == 'X') e["dur"] = static_cast<double>(ev.durNs) / 1000.0;
      if (ev.ph == 'i') e["s"] = "t";
      e["pid"] = 1;
      e["tid"] = ts.tid;
      if (ev.ph == 'C') {
        Json args = Json::object();
        args["value"] = ev.value;
        e["args"] = std::move(args);
      } else if (ev.argName) {
        Json args = Json::object();
        args[ev.argName] = ev.value;
        e["args"] = std::move(args);
      }
      events.push(std::move(e));
    }
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  Json other = Json::object();
  other["detail"] = traceDetailName(opts_.detail);
  other["dropped_events"] = droppedCount();
  doc["otherData"] = std::move(other);
  return doc;
}

TraceSummary TraceSession::summary() const {
  std::vector<ThreadSnapshot> snaps = snapshot();
  TraceSummary s;
  for (const ThreadSnapshot& ts : snaps) {
    uint64_t last = 0;
    for (const TraceEvent& ev : ts.events) last = std::max(last, ev.tsNs + ev.durNs);
    s.windowNs = std::max(s.windowNs, last);
  }
  for (const ThreadSnapshot& ts : snaps) {
    TraceThreadSummary t;
    t.tid = ts.tid;
    t.name = ts.name.empty() ? "thread-" + std::to_string(ts.tid) : ts.name;
    t.events = ts.events.size() + ts.dropped;
    t.dropped = ts.dropped;
    t.busyNs = ts.busyNs;
    t.barrierNs = ts.barrierNs;
    uint64_t accounted = t.busyNs + t.barrierNs;
    t.idleNs = s.windowNs > accounted ? s.windowNs - accounted : 0;
    if (s.windowNs > 0) {
      double w = static_cast<double>(s.windowNs);
      t.busyFrac = static_cast<double>(t.busyNs) / w;
      t.barrierFrac = static_cast<double>(t.barrierNs) / w;
      t.idleFrac = static_cast<double>(t.idleNs) / w;
    }
    s.events += t.events;
    s.dropped += t.dropped;
    s.threads.push_back(std::move(t));
  }
  s.truncated = s.dropped > 0;
  return s;
}

Json TraceSummary::toJson() const {
  Json j = Json::object();
  j["window_ns"] = windowNs;
  j["events"] = events;
  j["dropped_events"] = dropped;
  j["truncated"] = truncated;
  Json ts = Json::array();
  for (const TraceThreadSummary& t : threads) {
    Json row = Json::object();
    row["tid"] = t.tid;
    row["name"] = t.name;
    row["events"] = t.events;
    row["dropped"] = t.dropped;
    row["busy_ns"] = t.busyNs;
    row["barrier_ns"] = t.barrierNs;
    row["idle_ns"] = t.idleNs;
    row["busy_frac"] = t.busyFrac;
    row["barrier_frac"] = t.barrierFrac;
    row["idle_frac"] = t.idleFrac;
    ts.push(std::move(row));
  }
  j["threads"] = std::move(ts);
  return j;
}

std::string TraceSummary::render() const {
  std::string out = fmt(
      "trace summary: window %.3f ms, %llu events (%llu dropped%s)\n",
      static_cast<double>(windowNs) / 1e6, static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(dropped), truncated ? "; ring truncated" : "");
  out += fmt("  %-14s %8s %8s %8s %10s\n", "thread", "busy", "barrier", "idle", "events");
  for (const TraceThreadSummary& t : threads)
    out += fmt("  %-14s %7.1f%% %7.1f%% %7.1f%% %10llu\n", t.name.c_str(),
                  100.0 * t.busyFrac, 100.0 * t.barrierFrac, 100.0 * t.idleFrac,
                  static_cast<unsigned long long>(t.events));
  return out;
}

}  // namespace essent::obs

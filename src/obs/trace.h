// Per-query tracing: lock-free per-thread event rings, Chrome
// trace_event JSON export (docs/observability.md).
//
// A TraceSink is created per traced query (EngineOptions::trace) and
// collects TraceEvents — phase spans, morsel batches, io submits and
// stalls, pool pin/evict/write-back, cache lookup/install, admission
// wait — from every thread that touches the query: the session's
// caller thread, its worker team and the buffer pool's flusher. Each
// thread appends into its own fixed-capacity ring (one atomic store per
// event, no locks, no allocation on the record path); rings are
// harvested after the query quiesces and exported as Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto
// (JoinReport::trace).
//
// Tracing is compiled in but off by default. The record path is gated
// on a thread-local sink pointer: with no sink installed, a TraceSpan
// costs one thread-local load and a branch (measured < 1% of join
// throughput — BM_TraceOverheadOff), and allocates nothing.
//
//   obs::TraceSpan span(obs::kCatPhase, "phase 4 (join)");
//   span.arg1("morsels", 42);
//   ...                            // span records itself on scope exit
//
// Threads are attached with ScopedTraceThread (WorkerTeam::Run does
// this for workers; the engine for its caller). Event names and
// categories must be string literals (the sink stores the pointers).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mpsm::obs {

// Canonical event categories (trace schema, docs/observability.md).
inline constexpr const char* kCatQuery = "query";
inline constexpr const char* kCatPlan = "plan";
inline constexpr const char* kCatPhase = "phase";
inline constexpr const char* kCatMorsel = "morsel";
inline constexpr const char* kCatIo = "io";
inline constexpr const char* kCatPool = "pool";
inline constexpr const char* kCatCache = "cache";
inline constexpr const char* kCatService = "service";
inline constexpr const char* kCatRecovery = "recovery";

/// One recorded event. 64 bytes; name/category/arg keys are borrowed
/// string literals.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  /// Nanoseconds relative to the sink's epoch (may be negative for
  /// retroactive events such as admission wait).
  int64_t start_ns = 0;
  /// 0 for instant events.
  int64_t dur_ns = 0;
  const char* key1 = nullptr;
  const char* key2 = nullptr;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};
static_assert(sizeof(TraceEvent) == 64);

/// Per-category span-time aggregate plus drop accounting; cheap enough
/// to embed in JoinReport::ToJson without shipping every event.
struct TraceSummary {
  uint64_t events = 0;
  uint64_t dropped_events = 0;
  uint64_t threads = 0;
  /// Trace extent: [min start, max end] over all events, ns.
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  struct CategoryTotal {
    const char* category = nullptr;
    uint64_t events = 0;
    uint64_t span_ns = 0;  // summed durations (overlaps not collapsed)
  };
  std::vector<CategoryTotal> categories;
};

/// Sink tuning; the engine's traced queries use the defaults.
struct TraceSinkOptions {
  /// Events per thread ring. When a ring fills, further *instant*
  /// events are dropped first (kSpanReserve slots stay reserved for
  /// spans, so phase/query spans — the wall-time coverage — survive
  /// event storms); drops are counted, never blocked on.
  size_t ring_events = 4096;
  /// Thread rings (workers + caller + flusher + headroom).
  /// Threads past the last ring drop their events (counted).
  size_t max_threads = 64;
};

/// Ring slots reserved for span events once instants filled the rest.
inline constexpr size_t kSpanReserve = 256;

/// Collects one query's trace. Thread-safe for recording from any
/// attached thread; export (ToChromeJson / Summary) must run after the
/// query quiesced (no Record in flight).
class TraceSink {
 public:
  explicit TraceSink(uint64_t query_id, TraceSinkOptions options = {});
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  uint64_t query_id() const { return query_id_; }

  /// Monotonic now, ns relative to the sink's epoch.
  int64_t NowNs() const;

  /// Appends a completed span to the calling thread's ring.
  void RecordSpan(const char* category, const char* name, int64_t start_ns,
                  int64_t dur_ns, const char* key1 = nullptr,
                  uint64_t arg1 = 0, const char* key2 = nullptr,
                  uint64_t arg2 = 0);

  /// Appends an instant event to the calling thread's ring.
  void RecordInstant(const char* category, const char* name,
                     const char* key1 = nullptr, uint64_t arg1 = 0,
                     const char* key2 = nullptr, uint64_t arg2 = 0);

  /// Labels the calling thread's ring ("worker 3", "caller");
  /// becomes the tid name in the Chrome export. `role` must be a
  /// literal.
  void LabelThread(const char* role, uint32_t role_id);

  /// Chrome trace_event JSON ({"traceEvents": [...]}); pid is the
  /// query id, tid the thread ring index, ts/dur microseconds.
  std::string ToChromeJson() const;

  TraceSummary Summary() const;

  /// All events of thread ring `slot` in record order (tests).
  const TraceEvent* RingEvents(size_t slot, size_t* count) const;
  size_t threads() const {
    return std::min(next_slot_.load(std::memory_order_acquire),
                    options_.max_threads);
  }
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class ScopedTraceThread;

  struct Ring {
    std::vector<TraceEvent> events;   // capacity fixed at construction
    std::atomic<size_t> count{0};     // single-producer append index
    const char* role = "thread";
    uint32_t role_id = 0;
  };

  /// The calling thread's ring, allocated on first use; nullptr once
  /// max_threads rings are taken (events then count as dropped).
  Ring* ThreadRing();
  void Record(const TraceEvent& event, bool is_span);

  const uint64_t query_id_;
  const TraceSinkOptions options_;
  const uint64_t sink_id_;  // process-unique; keys the thread-slot cache
  int64_t epoch_ns_ = 0;    // steady_clock ns at construction
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<size_t> next_slot_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// The calling thread's current sink (nullptr = tracing off). This is
/// THE disabled-path gate: every record helper loads it first.
TraceSink* CurrentTraceSink();

/// Installs `sink` as the calling thread's current sink for the scope
/// (restoring the previous one on exit) and labels its ring. Null sink
/// = tracing stays off for the scope.
class ScopedTraceThread {
 public:
  ScopedTraceThread(TraceSink* sink, const char* role, uint32_t role_id);
  ~ScopedTraceThread();

  ScopedTraceThread(const ScopedTraceThread&) = delete;
  ScopedTraceThread& operator=(const ScopedTraceThread&) = delete;

 private:
  TraceSink* previous_;
};

/// RAII span against the thread's current sink. With tracing off the
/// constructor is one thread-local load and a branch; nothing is
/// recorded or allocated.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : sink_(CurrentTraceSink()), category_(category), name_(name) {
    if (sink_ != nullptr) start_ns_ = sink_->NowNs();
  }
  ~TraceSpan() {
    if (sink_ != nullptr) {
      sink_->RecordSpan(category_, name_, start_ns_,
                        sink_->NowNs() - start_ns_, key1_, arg1_, key2_,
                        arg2_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches up to two integer args (keys must be literals).
  void arg1(const char* key, uint64_t value) {
    key1_ = key;
    arg1_ = value;
  }
  void arg2(const char* key, uint64_t value) {
    key2_ = key;
    arg2_ = value;
  }

  bool enabled() const { return sink_ != nullptr; }

 private:
  TraceSink* sink_;
  const char* category_;
  const char* name_;
  int64_t start_ns_ = 0;
  const char* key1_ = nullptr;
  const char* key2_ = nullptr;
  uint64_t arg1_ = 0;
  uint64_t arg2_ = 0;
};

/// Instant event against the thread's current sink (no-op when off).
inline void TraceInstant(const char* category, const char* name,
                         const char* key1 = nullptr, uint64_t arg1 = 0,
                         const char* key2 = nullptr, uint64_t arg2 = 0) {
  if (TraceSink* sink = CurrentTraceSink()) {
    sink->RecordInstant(category, name, key1, arg1, key2, arg2);
  }
}

/// Retroactive span: records [now - dur_ns, now] against the current
/// sink (io stalls and admission waits are measured before they are
/// recorded; no-op when off).
inline void TraceSpanEndingNow(const char* category, const char* name,
                               int64_t dur_ns, const char* key1 = nullptr,
                               uint64_t arg1 = 0) {
  if (TraceSink* sink = CurrentTraceSink()) {
    const int64_t end = sink->NowNs();
    sink->RecordSpan(category, name, end - dur_ns, dur_ns, key1, arg1);
  }
}

}  // namespace mpsm::obs

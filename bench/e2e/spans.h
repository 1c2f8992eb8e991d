// The driver's own spans, and their merge with the engine's per-query
// trace (EngineOptions::trace).
//
// The driver wraps every public call it makes in a ClientSpan. For a
// traced join, the engine's events (JoinReport::trace) are placed on
// the driver's clock and hung beneath that span: per thread by
// nesting; a worker thread's outermost span under the caller-thread span
// that was open when it started; the caller thread's outermost spans
// under the driver's span. Self time is a span's duration minus the
// part of it its children cover.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/trace.h"
#include "util/json.h"

namespace mpsm::e2e {

/// Steady-clock nanoseconds: the clock both the driver and the engine's
/// trace sinks read.
int64_t NowNs();

/// Engine trace categories the per-layer self times are reported for:
/// those that record spans on some workload. Morsel counts ride on the
/// phase spans as args, cache events are instants, and no workload here
/// donates workers, so those categories would always read 0.
inline constexpr std::array<const char*, 6> kTraceCategories = {
    obs::kCatQuery, obs::kCatPlan, obs::kCatPhase,
    obs::kCatIo,    obs::kCatPool, obs::kCatService};

/// Where one traced join's time went.
struct TraceBreakdown {
  /// Self time per kTraceCategories entry, summed over threads.
  std::array<double, kTraceCategories.size()> self_ms{};
  /// Share of the driver's span that engine spans cover.
  double coverage = 0;
};

/// A span the driver records around one public call.
struct ClientSpan {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t client = 0;
  /// The query id the engine trace carries (its Chrome pid); 0 for
  /// calls that run no query.
  uint64_t query_id = 0;
};

/// Breaks `op`'s time down by the engine's trace `sink` of the same
/// query. `sink` must have quiesced (its query returned).
TraceBreakdown Analyze(const ClientSpan& op, const obs::TraceSink& sink);

/// The merged Chrome trace of one run: driver spans (pid 0, one tid
/// per client) and each traced query's engine spans (pid = query id),
/// on one clock. Thread-safe.
class ChromeTrace {
 public:
  /// Records a driver span; `parent` is the id AddClient returned for
  /// the enclosing span, or -1. Returns this span's id.
  int64_t AddClient(const ClientSpan& span, int64_t parent = -1);
  /// Records every span of a traced query (instant events are left
  /// out: the report's counters carry them).
  void AddQuery(const obs::TraceSink& sink);
  /// Writes {"traceEvents": [...]} to `path`.
  bool Write(const std::string& path) const;

 private:
  /// Opens one complete ("X") event and writes its common fields; the
  /// caller may add "args" and closes the object.
  void BeginEvent(const char* name, const char* category, int64_t start_ns,
                  int64_t dur_ns, uint64_t pid, uint64_t tid);

  mutable std::mutex mu_;
  JsonWriter events_;
  int64_t next_id_ = 0;
};

}  // namespace mpsm::e2e

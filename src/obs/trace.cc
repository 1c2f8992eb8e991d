#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace mpsm::obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t> g_next_sink_id{1};

/// Thread-local slot cache: remembers which ring this thread owns in
/// recently used sinks, keyed by process-unique sink id (a freed and
/// reallocated sink can never alias a stale entry). Four entries cover
/// the realistic working set with round-robin replacement; a
/// re-registered thread merely takes a fresh ring.
struct SlotCacheEntry {
  uint64_t sink_id = 0;
  size_t slot = 0;
};
constexpr size_t kSlotCacheSize = 4;
thread_local SlotCacheEntry t_slot_cache[kSlotCacheSize];
thread_local size_t t_slot_cache_next = 0;

thread_local TraceSink* t_current_sink = nullptr;

TraceSinkOptions Sanitize(TraceSinkOptions options) {
  options.ring_events = std::max<size_t>(options.ring_events, 1);
  options.max_threads = std::max<size_t>(options.max_threads, 1);
  return options;
}

}  // namespace

TraceSink::TraceSink(uint64_t query_id, TraceSinkOptions options)
    : query_id_(query_id),
      options_(Sanitize(options)),
      sink_id_(g_next_sink_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(SteadyNowNs()) {
  rings_.resize(options_.max_threads);
}

TraceSink::~TraceSink() = default;

int64_t TraceSink::NowNs() const { return SteadyNowNs() - epoch_ns_; }

TraceSink::Ring* TraceSink::ThreadRing() {
  for (SlotCacheEntry& entry : t_slot_cache) {
    if (entry.sink_id == sink_id_) return rings_[entry.slot].get();
  }
  // First event from this thread (or its cache entry was replaced):
  // take the next ring.
  const size_t slot = next_slot_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= options_.max_threads) return nullptr;
  auto ring = std::make_unique<Ring>();
  ring->events.resize(options_.ring_events);
  rings_[slot] = std::move(ring);
  SlotCacheEntry& entry = t_slot_cache[t_slot_cache_next];
  t_slot_cache_next = (t_slot_cache_next + 1) % kSlotCacheSize;
  entry.sink_id = sink_id_;
  entry.slot = slot;
  return rings_[slot].get();
}

void TraceSink::Record(const TraceEvent& event, bool is_span) {
  Ring* ring = ThreadRing();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t count = ring->count.load(std::memory_order_relaxed);
  const size_t capacity = ring->events.size();
  // Instants yield the tail of the ring to spans: phase/query spans
  // carry the wall-time coverage and must survive event storms.
  const size_t limit =
      is_span ? capacity
              : (capacity > kSpanReserve ? capacity - kSpanReserve : capacity);
  if (count >= limit) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->events[count] = event;
  ring->count.store(count + 1, std::memory_order_release);
}

void TraceSink::RecordSpan(const char* category, const char* name,
                           int64_t start_ns, int64_t dur_ns, const char* key1,
                           uint64_t arg1, const char* key2, uint64_t arg2) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_ns = start_ns;
  event.dur_ns = std::max<int64_t>(dur_ns, 0);
  event.key1 = key1;
  event.key2 = key2;
  event.arg1 = arg1;
  event.arg2 = arg2;
  Record(event, /*is_span=*/true);
}

void TraceSink::RecordInstant(const char* category, const char* name,
                              const char* key1, uint64_t arg1,
                              const char* key2, uint64_t arg2) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_ns = NowNs();
  event.dur_ns = 0;
  event.key1 = key1;
  event.key2 = key2;
  event.arg1 = arg1;
  event.arg2 = arg2;
  Record(event, /*is_span=*/false);
}

void TraceSink::LabelThread(const char* role, uint32_t role_id) {
  if (Ring* ring = ThreadRing()) {
    ring->role = role;
    ring->role_id = role_id;
  }
}

const TraceEvent* TraceSink::RingEvents(size_t slot, size_t* count) const {
  if (slot >= rings_.size() || rings_[slot] == nullptr) {
    *count = 0;
    return nullptr;
  }
  const Ring& ring = *rings_[slot];
  *count = std::min(ring.count.load(std::memory_order_acquire),
                    ring.events.size());
  return ring.events.data();
}

namespace {

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string TraceSink::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  const size_t used = threads();
  for (size_t slot = 0; slot < used; ++slot) {
    size_t count = 0;
    const TraceEvent* events = RingEvents(slot, &count);
    if (events == nullptr) continue;
    const Ring& ring = *rings_[slot];
    // Thread name metadata so Perfetto shows "worker 3" not "tid 3".
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu64
                  ",\"tid\":%zu,\"args\":{\"name\":\"",
                  query_id_, slot);
    out += buf;
    AppendEscaped(out, ring.role);
    std::snprintf(buf, sizeof(buf), " %u\"}}", ring.role_id);
    out += buf;
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& e = events[i];
      out += ',';
      out += "{\"name\":\"";
      AppendEscaped(out, e.name);
      out += "\",\"cat\":\"";
      AppendEscaped(out, e.category);
      // Complete ("X") events for spans, instant ("i") otherwise;
      // Chrome ts/dur are microseconds (fractional ok).
      if (e.dur_ns > 0) {
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%" PRIu64
                      ",\"tid\":%zu",
                      static_cast<double>(e.start_ns) / 1e3,
                      static_cast<double>(e.dur_ns) / 1e3, query_id_, slot);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%" PRIu64
                      ",\"tid\":%zu",
                      static_cast<double>(e.start_ns) / 1e3, query_id_, slot);
      }
      out += buf;
      if (e.key1 != nullptr || e.key2 != nullptr) {
        out += ",\"args\":{";
        if (e.key1 != nullptr) {
          out += '"';
          AppendEscaped(out, e.key1);
          std::snprintf(buf, sizeof(buf), "\":%" PRIu64, e.arg1);
          out += buf;
        }
        if (e.key2 != nullptr) {
          if (e.key1 != nullptr) out += ',';
          out += '"';
          AppendEscaped(out, e.key2);
          std::snprintf(buf, sizeof(buf), "\":%" PRIu64, e.arg2);
          out += buf;
        }
        out += '}';
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

TraceSummary TraceSink::Summary() const {
  TraceSummary summary;
  summary.dropped_events = dropped_.load(std::memory_order_relaxed);
  bool any = false;
  const size_t used = threads();
  for (size_t slot = 0; slot < used; ++slot) {
    size_t count = 0;
    const TraceEvent* events = RingEvents(slot, &count);
    if (events == nullptr) continue;
    ++summary.threads;
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& e = events[i];
      ++summary.events;
      if (!any || e.start_ns < summary.begin_ns) summary.begin_ns = e.start_ns;
      if (!any || e.start_ns + e.dur_ns > summary.end_ns) {
        summary.end_ns = e.start_ns + e.dur_ns;
      }
      any = true;
      TraceSummary::CategoryTotal* total = nullptr;
      for (auto& existing : summary.categories) {
        if (std::strcmp(existing.category, e.category) == 0) {
          total = &existing;
          break;
        }
      }
      if (total == nullptr) {
        summary.categories.push_back({e.category, 0, 0});
        total = &summary.categories.back();
      }
      ++total->events;
      total->span_ns += static_cast<uint64_t>(e.dur_ns);
    }
  }
  return summary;
}

TraceSink* CurrentTraceSink() { return t_current_sink; }

ScopedTraceThread::ScopedTraceThread(TraceSink* sink, const char* role,
                                     uint32_t role_id)
    : previous_(t_current_sink) {
  t_current_sink = sink;
  if (sink != nullptr) sink->LabelThread(role, role_id);
}

ScopedTraceThread::~ScopedTraceThread() { t_current_sink = previous_; }

}  // namespace mpsm::obs

#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

namespace mpsm::e2e {

namespace {

const int64_t kTraceEpochNs = NowNs();

using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<Interval>& intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, cursor);
    const int64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

int CategoryIndex(const char* category) {
  for (size_t i = 0; i < kTraceCategories.size(); ++i) {
    if (std::strcmp(category, kTraceCategories[i]) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Sink-relative nanoseconds -> NowNs() clock.
int64_t SinkEpochNs(const obs::TraceSink& sink) {
  return NowNs() - sink.NowNs();
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceBreakdown Analyze(const ClientSpan& op, const obs::TraceSink& sink) {
  struct Node {
    int64_t start;
    int64_t end;
    int category;
    size_t parent;
  };
  const int64_t epoch = SinkEpochNs(sink);
  // Node 0 is the driver's span; ring 0 is the engine's caller thread
  // (Execute labels it before anything else records).
  std::vector<Node> nodes = {{op.start_ns, op.end_ns, -1, 0}};
  std::vector<size_t> caller_nodes;
  std::vector<size_t> outer_worker_nodes;
  for (size_t slot = 0; slot < sink.threads(); ++slot) {
    size_t count = 0;
    const obs::TraceEvent* events = sink.RingEvents(slot, &count);
    std::vector<Node> ring;
    for (size_t i = 0; i < count; ++i) {
      const obs::TraceEvent& e = events[i];
      if (e.dur_ns <= 0) continue;
      ring.push_back({epoch + e.start_ns, epoch + e.start_ns + e.dur_ns,
                      CategoryIndex(e.category), 0});
    }
    std::sort(ring.begin(), ring.end(), [](const Node& a, const Node& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<size_t> open;
    for (Node& node : ring) {
      while (!open.empty() && nodes[open.back()].end <= node.start) {
        open.pop_back();
      }
      const size_t index = nodes.size();
      if (!open.empty()) {
        node.parent = open.back();
      } else if (slot != 0) {
        outer_worker_nodes.push_back(index);
      }
      nodes.push_back(node);
      open.push_back(index);
      if (slot == 0) caller_nodes.push_back(index);
    }
  }
  // A worker's outermost span hangs under the innermost caller span open
  // at its start; caller_nodes is in (start, -end) order, so the last
  // match is the innermost.
  for (const size_t index : outer_worker_nodes) {
    for (const size_t caller : caller_nodes) {
      if (nodes[caller].start > nodes[index].start) break;
      if (nodes[caller].end > nodes[index].start) {
        nodes[index].parent = caller;
      }
    }
  }

  std::vector<std::vector<Interval>> children(nodes.size());
  std::vector<Interval> all;
  for (size_t i = 1; i < nodes.size(); ++i) {
    children[nodes[i].parent].emplace_back(nodes[i].start, nodes[i].end);
    all.emplace_back(nodes[i].start, nodes[i].end);
  }
  TraceBreakdown breakdown;
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].category < 0) continue;
    const int64_t self = nodes[i].end - nodes[i].start -
                         CoveredNs(children[i], nodes[i].start, nodes[i].end);
    breakdown.self_ms[nodes[i].category] += self / 1e6;
  }
  const int64_t op_ns = op.end_ns - op.start_ns;
  if (op_ns > 0) {
    breakdown.coverage =
        static_cast<double>(CoveredNs(all, op.start_ns, op.end_ns)) / op_ns;
  }
  return breakdown;
}

int64_t ChromeTrace::AddClient(const ClientSpan& span, int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  BeginEvent(span.name, "client", span.start_ns, span.end_ns - span.start_ns,
             0, span.client);
  events_.Key("args");
  events_.BeginObject();
  events_.Field("id", id);
  events_.Field("parent", parent);
  events_.Field("query_id", span.query_id);
  events_.EndObject();
  events_.EndObject();
  return id;
}

void ChromeTrace::AddQuery(const obs::TraceSink& sink) {
  const int64_t epoch = SinkEpochNs(sink);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t slot = 0; slot < sink.threads(); ++slot) {
    size_t count = 0;
    const obs::TraceEvent* events = sink.RingEvents(slot, &count);
    for (size_t i = 0; i < count; ++i) {
      const obs::TraceEvent& e = events[i];
      if (e.dur_ns <= 0) continue;
      BeginEvent(e.name, e.category, epoch + e.start_ns, e.dur_ns,
                 sink.query_id(), slot);
      events_.EndObject();
    }
  }
}

void ChromeTrace::BeginEvent(const char* name, const char* category,
                             int64_t start_ns, int64_t dur_ns, uint64_t pid,
                             uint64_t tid) {
  events_.BeginObject();
  events_.Field("name", name);
  events_.Field("cat", category);
  events_.Field("ph", "X");
  events_.Field("ts", (start_ns - kTraceEpochNs) / 1e3);
  events_.Field("dur", dur_ns / 1e3);
  events_.Field("pid", pid);
  events_.Field("tid", tid);
}

bool ChromeTrace::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  // events_ holds the events as a comma-separated sequence.
  std::fputs("{\"traceEvents\":[", file);
  std::fputs(events_.str().c_str(), file);
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace mpsm::e2e

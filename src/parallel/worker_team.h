// Worker team: the unit of intra-operator parallelism.
//
// A WorkerTeam spawns T threads, pins each to a core chosen by the NUMA
// topology (socket-major round robin), gives each worker a private
// node-homed arena, and runs a job function on every worker. Workers
// coordinate only through the team barrier; there is no shared mutable
// state (commandment C3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "numa/arena.h"
#include "numa/topology.h"
#include "obs/trace.h"
#include "parallel/barrier.h"
#include "parallel/counters.h"

namespace mpsm {

class WorkerTeam;

/// Everything a worker needs: identity, placement, barrier, stats sink,
/// and its local arena.
struct WorkerContext {
  uint32_t worker_id = 0;
  uint32_t team_size = 1;
  uint32_t core = 0;
  numa::NodeId node = 0;
  Barrier* barrier = nullptr;
  WorkerStats* stats = nullptr;
  numa::Arena* arena = nullptr;
  const numa::Topology* topology = nullptr;

  /// True when memory homed on `owner` is local to this worker.
  bool IsLocal(numa::NodeId owner) const { return owner == node; }

  /// Counters of the given phase for this worker.
  PerfCounters& Counters(JoinPhase phase) {
    return stats->phase_counters[phase];
  }
};

/// RAII phase timer: accumulates wall time into WorkerStats on scope exit.
class PhaseScope {
 public:
  PhaseScope(WorkerContext& ctx, JoinPhase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  WorkerContext& ctx_;
  JoinPhase phase_;
  double start_seconds_;
};

/// Spawns and joins a fixed-size team of pinned worker threads.
class WorkerTeam {
 public:
  /// Creates a team of `team_size` workers placed on `topology`.
  WorkerTeam(const numa::Topology& topology, uint32_t team_size);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Runs `job(ctx)` on every worker thread and waits for completion.
  /// Per-worker stats are reset at the start of each Run.
  void Run(const std::function<void(WorkerContext&)>& job);

  uint32_t size() const { return team_size_; }
  const numa::Topology& topology() const { return *topology_; }

  /// Stats of worker `w` from the most recent Run.
  const WorkerStats& stats(uint32_t w) const { return stats_[w]; }

  /// Stats aggregated over all workers from the most recent Run.
  WorkerStats AggregateStats() const;

  /// Longest per-phase wall time over workers (the barrier-to-barrier
  /// duration of each phase), summed over phases.
  double CriticalPathSeconds() const;

  /// Arena of worker `w` (homed on that worker's node). P-MPSM and
  /// B-MPSM keep their runs and partitions here, Reset at the start of
  /// each query, so a session reuses the pages its last query faulted
  /// in. A team runs one query at a time (Run's shared barrier already
  /// requires it); arenas are reset or released only between Runs.
  numa::Arena& ArenaOf(uint32_t w) { return *arenas_[w]; }

  /// Frees the blocks of every worker arena (between Runs only).
  void ReleaseArenas();

  /// Bytes the worker arenas hold (sum of Arena::bytes_reserved).
  uint64_t arena_bytes() const;

  /// Attaches the current query's trace sink (obs/trace.h): Run
  /// installs it as every worker thread's current sink, so spans
  /// recorded anywhere under the job land in this query's trace.
  /// nullptr (the default) keeps tracing off. The engine sets this per
  /// Execute and clears it after.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

 private:
  const numa::Topology* topology_;
  uint32_t team_size_;
  Barrier barrier_;
  std::vector<WorkerStats> stats_;
  std::vector<std::unique_ptr<numa::Arena>> arenas_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace mpsm

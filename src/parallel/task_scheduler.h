// Morsel-driven phase scheduler: the shared execution layer of all four
// join variants.
//
// The paper's algorithms script every phase statically: worker w sorts
// chunk w, scatters chunk w, sorts partition w, joins partition w. That
// is perfectly synchronization-free, but one hot partition in phase 3/4
// stalls the whole team at the next barrier (Figures 15/16). The
// TaskScheduler keeps the phase/barrier structure and replaces the
// static scripts with *morsels* — range-sliced units of phase work
// (run-generation chunks, scatter blocks, sort buckets, merge ranges) —
// queued per NUMA node. A worker drains its own node's queue first
// (locality-first dispatch) and then steals from other nodes in
// distance order, so idle workers absorb stragglers' backlogs instead
// of waiting. Static mode runs the same morsel plan with whole-task
// morsels (MorselSlice) on per-worker lists claimed without atomics,
// reproducing the paper's scripts exactly; MpsmOptions::scheduler
// selects the mode for A/B runs (docs/scheduler.md).
//
// PhasePipeline expresses a join as a sequence of steps — serial
// (worker-0) combines and morsel-parallel phases — so the four drivers
// share one orchestration point instead of four fused per-worker
// lambdas.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "numa/topology.h"
#include "parallel/counters.h"
#include "parallel/scheduler_kind.h"
#include "parallel/worker_team.h"

namespace mpsm {

/// One schedulable unit of phase work: a caller-defined task id plus a
/// half-open range within that task, homed on a preferred worker. The
/// interpretation of task/begin/end is the phase body's business (chunk
/// id + tuple range, partition id + bucket range, run pair + merge
/// range, ...).
struct Morsel {
  uint32_t home_worker = 0;
  uint32_t task = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Per-node morsel queues with locality-first dispatch and cross-node
/// work stealing (static mode: per-worker lists, no atomics).
///
/// Lifecycle per phase: one thread calls Reset() with the phase's
/// morsels while no Claim() is in flight (between barriers); workers
/// then Claim() until it returns nullptr. A worker never idles while
/// morsels remain anywhere: in stealing mode Claim() only returns
/// nullptr once every queue is drained.
class TaskScheduler {
 public:
  TaskScheduler(const numa::Topology& topology, uint32_t team_size,
                SchedulerKind kind);

  /// Replaces all queued morsels. Must not race with Claim().
  void Reset(std::vector<Morsel> morsels);

  /// Claims the next morsel for the calling worker, or nullptr when no
  /// claimable work remains. Stealing mode claims from the worker's own
  /// node queue first, then from other nodes in topology-distance
  /// order; every claim is one atomic acquisition and cross-node claims
  /// are additionally counted as steals in `counters`. Static mode
  /// walks the worker's own list in order, synchronization-free.
  /// The returned pointer stays valid until the next Reset().
  const Morsel* Claim(const WorkerContext& ctx, PerfCounters& counters);

  /// Morsels not yet claimed (exact only while no Claim is in flight).
  size_t remaining() const;

  SchedulerKind kind() const { return kind_; }
  uint32_t team_size() const { return team_size_; }

 private:
  struct Queue {
    std::vector<Morsel> morsels;
    alignas(64) std::atomic<size_t> head{0};
  };

  const numa::Topology* topology_;
  uint32_t team_size_;
  SchedulerKind kind_;
  // Static: one queue per worker. Stealing: one queue per node.
  std::vector<std::unique_ptr<Queue>> queues_;
  // steal_order_[n]: the other nodes, nearest (SLIT distance) first.
  std::vector<std::vector<uint32_t>> steal_order_;
};

/// A join expressed as a sequence of steps sharing one WorkerTeam run:
/// serial worker-0 combines and morsel-parallel phases with factories
/// that produce each phase's morsels.
class PhasePipeline {
 public:
  using SerialFn = std::function<void(WorkerContext&)>;
  using MorselBody = std::function<void(WorkerContext&, const Morsel&)>;
  using MorselFactory = std::function<std::vector<Morsel>()>;

  /// Per-phase knobs (all default to the common case).
  struct PhaseOptions {
    /// Eager factories depend only on inputs known before Run() and are
    /// evaluated up front, avoiding the pre-phase distribution barrier.
    /// Lazy factories run on worker 0 right before the phase, so they
    /// see every earlier step's products.
    bool eager = true;
    /// Pinned phases always execute morsels on their home worker, even
    /// under a stealing scheduler (allocations from the home worker's
    /// arena).
    bool pinned = false;
    /// Self-timed bodies manage their own PhaseScope sub-timers (e.g.
    /// the radix join's pass-2/join split); the pipeline then only
    /// charges morsel claims to `slot`.
    bool self_timed = false;
  };

  PhasePipeline(const numa::Topology& topology, uint32_t team_size,
                SchedulerKind kind);

  /// Appends a worker-0 step; the team synchronizes after it.
  void AddSerial(JoinPhase slot, SerialFn fn);

  /// Appends a morsel-parallel phase accounted under `slot`.
  void AddPhase(JoinPhase slot, MorselFactory factory, MorselBody body,
                PhaseOptions options);
  void AddPhase(JoinPhase slot, MorselFactory factory, MorselBody body) {
    AddPhase(slot, std::move(factory), std::move(body), PhaseOptions{});
  }

  /// Executes all steps on `team`; the team synchronizes after every
  /// step but the last.
  void Run(WorkerTeam& team);

  SchedulerKind kind() const { return kind_; }

 private:
  struct Step {
    JoinPhase slot = kPhaseJoin;
    bool serial = false;
    SerialFn serial_fn;
    MorselFactory factory;
    MorselBody body;
    PhaseOptions options;
    std::unique_ptr<TaskScheduler> scheduler;
  };

  const numa::Topology* topology_;
  uint32_t team_size_;
  SchedulerKind kind_;
  std::vector<Step> steps_;
};

/// Slices [0, total) into ranges of at most `morsel_size` (>= 1) items;
/// the standard way phases turn a chunk/partition into morsels. Always
/// emits at least one (possibly empty) range so per-task bookkeeping
/// (plan rows, run slots) stays dense.
std::vector<std::pair<uint64_t, uint64_t>> SliceRanges(uint64_t total,
                                                       uint64_t morsel_size);

/// One morsel per chunk/partition/consumer, homed on its worker — the
/// canonical morsel list for per-chunk phases (task == home == index).
std::vector<Morsel> ChunkMorsels(uint32_t num_chunks);

/// Target tuples per stealable morsel (scatter blocks, sort buckets,
/// merge ranges): 2^14 tuples = 256 KiB keeps a morsel around one L2.
/// One fixed size, as in morsel-driven engines (Leis et al., SIGMOD
/// 2014).
inline constexpr uint64_t kMorselTuples = uint64_t{1} << 14;

/// The slice a phase cuts its tasks into: kMorselTuples under
/// stealing, the whole task under static scheduling. The paper's
/// per-worker scripts are the morsel plan with whole-task morsels.
inline uint64_t MorselSlice(SchedulerKind kind) {
  return kind == SchedulerKind::kStealing ? kMorselTuples : UINT64_MAX;
}

}  // namespace mpsm

// Calibrated cost model of the paper's evaluation machine ("HyPer1":
// 4x Intel X7560, 32 cores, 1 TB RAM, Figure 11).
//
// The development environment has one core and no NUMA, so wall-clock
// speedups cannot reproduce the paper's charts. Instead, every join
// algorithm in this library runs for real and emits exact per-worker
// PerfCounters (bytes moved classified by locality and access pattern,
// sort work, latch acquisitions, hash operations). This model maps
// those counters to modeled execution times on HyPer1.
//
// Calibration sources (documented in EXPERIMENTS.md):
//  - Figure 1 experiment 1: local chunk sort 12946 ms vs globally
//    allocated array 41734 ms for 50M tuples/worker
//    -> ns_per_sort_unit = 9.6, global_sort_penalty = 3.22.
//  - Figure 1 experiment 2: precomputed scatter 7440 ms vs test-and-set
//    synchronized scatter 22756 ms for 50M tuples/worker
//    -> ns_per_byte_rand_remote ~= 8.75, ns_per_sync ~= 306.
//  - Figure 1 experiment 3: local merge join 837 ms vs remote 1000 ms
//    over 2x50M tuples -> ns_per_byte_seq_local = 0.52, remote = 0.625.
//
// The model is deliberately simple: per-worker phase time is a linear
// function of the counters; machine response time is the sum over
// phases of the slowest worker (barrier semantics).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/counters.h"

namespace mpsm::sim {

/// Linear cost coefficients (nanoseconds) for one machine.
struct MachineModel {
  /// Physical cores; teams larger than this timeshare (hyperthreading).
  uint32_t cores = 32;
  uint32_t nodes = 4;

  // Sequential bulk traffic (prefetcher-friendly), per byte.
  double ns_per_byte_seq_local = 0.52;
  double ns_per_byte_seq_remote = 0.625;

  // Random traffic (cache/TLB-missing), per byte touched.
  double ns_per_byte_rand_local = 2.9;
  double ns_per_byte_rand_remote = 8.75;

  // Sorting, per n*log2(n) unit (comparison + move amortized).
  double ns_per_sort_unit = 9.6;

  // One contended test-and-set latch acquisition.
  double ns_per_sync = 306.0;

  // Extra cost of one cross-node morsel steal: the victim queue's head
  // line bounces across the interconnect and the stolen morsel's
  // metadata is fetched remotely. The stolen morsel's *data* traffic is
  // already captured by the byte counters (a stealing worker classifies
  // its reads/writes against its own node). Roughly two remote cache
  // line transfers on the paper's 4-socket QPI box.
  double ns_per_steal = 500.0;

  // Hash-table operations (beyond their counted memory traffic).
  double ns_per_hash_insert = 40.0;
  double ns_per_hash_probe = 30.0;

  // CPU cost of one *scalar* merge-loop step (compare + branch +
  // cursor bump, ~1 key/cycle on the paper-era Nehalem). The planner
  // divides it by the resolved SIMD kind's keys-per-compare
  // (simd::KeysPerCompare), pricing the phase-4 merge at the vector
  // width the machine actually has (docs/simd.md).
  double ns_per_merge_key = 0.5;

  // Async batched page I/O (src/io/): CPU cost of building and
  // submitting one vectored read (syscall + sqe/queue bookkeeping).
  double ns_per_io_submit = 1500.0;

  // Spill device: streaming read bandwidth when fully saturated, and
  // the queue depth that saturates it. Effective bandwidth ramps
  // linearly with depth (IoBytesPerSec), so depth 1 sees
  // io_bytes_per_sec / io_saturation_depth — the classic reason
  // batched async submission turns a spilling operator compute-bound.
  // 2.0 GB/s at depth >= 8 models the paper-era enterprise SSD array.
  double io_bytes_per_sec = 2.0e9;
  uint32_t io_saturation_depth = 8;

  /// Figure 1 exp. 1: sorting in a globally allocated (interleaved)
  /// array instead of the local partition costs this factor.
  double global_sort_penalty = 3.22;

  /// The paper's machine.
  static MachineModel HyPer1() { return MachineModel{}; }

  /// Effective spill-device read bandwidth at the given queue depth
  /// (linear ramp up to io_saturation_depth).
  double IoBytesPerSec(size_t queue_depth) const;

  /// Modeled seconds one worker spends on the work in `counters`.
  /// io_submits is charged at ns_per_io_submit; the measured
  /// io_stall_ns stays observability-only (a wall-clock artifact of
  /// the run host, not a machine-independent count).
  double PhaseSeconds(const PerfCounters& counters) const;
};

/// Modeled response time of a join execution on the machine.
struct ModeledExecution {
  /// Per phase: modeled time of the slowest worker.
  std::array<double, kNumJoinPhases> phase_seconds{};
  /// Sum of phase maxima (barrier semantics).
  double total_seconds = 0;
  /// Per-worker modeled totals (for balance charts like Figure 16).
  std::vector<double> worker_seconds;
};

/// Models a full execution from per-worker stats. `team_size` workers
/// share the machine; beyond `model.cores` they timeshare, so per-
/// worker times scale by team_size / cores (the Figure 13 flatline at
/// parallelism 64).
ModeledExecution ModelExecution(const MachineModel& model,
                                const std::vector<WorkerStats>& workers);

}  // namespace mpsm::sim

// Per-worker, per-phase performance counters.
//
// Algorithms classify every bulk memory access as {local, remote} x
// {sequential, random} against the NUMA topology and record the byte
// volume here, together with sort work and synchronization events. The
// sim::MachineModel maps these counters to modeled execution times on
// the paper's hardware; the counters themselves are exact products of
// the real algorithm execution.
#pragma once

#include <array>
#include <cstdint>

namespace mpsm {

/// Phases of the MPSM join algorithms (paper Figures 3 and 5).
/// Baselines reuse slots: build -> kPhase1, probe -> kPhase4, and the
/// radix join's partitioning passes -> kPhase2.
enum JoinPhase : uint32_t {
  kPhaseSortPublic = 0,   // phase 1: sort public input S
  kPhasePartition = 1,    // phase 2: range partition private input R
  kPhaseSortPrivate = 2,  // phase 3: sort private input R
  kPhaseJoin = 3,         // phase 4: merge join
  kNumJoinPhases = 4,
};

/// Canonical display name of a phase ("phase 1 (sort public)" etc.).
const char* JoinPhaseName(JoinPhase phase);

/// Raw operation counts for one worker within one phase.
struct PerfCounters {
  // Bulk memory traffic, classified at the call site.
  uint64_t bytes_read_local_seq = 0;
  uint64_t bytes_read_remote_seq = 0;
  uint64_t bytes_read_local_rand = 0;
  uint64_t bytes_read_remote_rand = 0;
  uint64_t bytes_written_local_seq = 0;
  uint64_t bytes_written_remote_seq = 0;
  uint64_t bytes_written_local_rand = 0;
  uint64_t bytes_written_remote_rand = 0;

  // Sort work: sum over sorted arrays of n and n*ceil(log2 n).
  uint64_t sort_tuples = 0;
  uint64_t sort_tuple_logs = 0;

  // Fine-grained synchronization events (latch/CAS acquisitions);
  // MPSM keeps this at zero in all hot paths by design. The stealing
  // scheduler's morsel claims count here (one atomic per claim).
  uint64_t sync_acquisitions = 0;

  // Morsel-driven scheduling (parallel/task_scheduler.h): morsels this
  // worker executed, and how many of those were stolen from another
  // NUMA node's queue (each steal moves the claim line — and usually
  // the morsel's data — across the interconnect; the machine model
  // charges ns_per_steal on top of the byte traffic).
  uint64_t morsels_executed = 0;
  uint64_t morsels_stolen = 0;

  // Async page I/O (src/io/, the D-MPSM spill path): batched read
  // submissions this worker issued, and wall nanoseconds it spent
  // blocked waiting for a staged or private-window page. The machine
  // model charges ns_per_io_submit per submission; io_stall_ns is
  // observability only (measured wall time, not a modeled count).
  uint64_t io_submits = 0;
  uint64_t io_stall_ns = 0;

  // Hash table operations (baselines).
  uint64_t hash_probes = 0;
  uint64_t hash_inserts = 0;

  // Join output tuples produced by this worker.
  uint64_t output_tuples = 0;

  /// Records a bulk read of `bytes` bytes.
  void CountRead(bool local, bool sequential, uint64_t bytes) {
    if (local) {
      (sequential ? bytes_read_local_seq : bytes_read_local_rand) += bytes;
    } else {
      (sequential ? bytes_read_remote_seq : bytes_read_remote_rand) += bytes;
    }
  }

  /// Records a bulk write of `bytes` bytes.
  void CountWrite(bool local, bool sequential, uint64_t bytes) {
    if (local) {
      (sequential ? bytes_written_local_seq : bytes_written_local_rand) +=
          bytes;
    } else {
      (sequential ? bytes_written_remote_seq : bytes_written_remote_rand) +=
          bytes;
    }
  }

  /// Records sorting an array of n tuples (n log n work).
  void CountSort(uint64_t n) { CountSortSlice(n, n); }

  /// Records sorting n tuples of an array of `whole` tuples that is
  /// sorted piecewise (n log whole work): the slices of one array
  /// together charge what CountSort(whole) does.
  void CountSortSlice(uint64_t n, uint64_t whole);

  PerfCounters& operator+=(const PerfCounters& other);

  /// Total bytes moved (reads + writes).
  uint64_t TotalBytes() const;
};

/// Wall-clock seconds and counters for each phase of one worker.
struct WorkerStats {
  std::array<double, kNumJoinPhases> phase_seconds = {};
  std::array<PerfCounters, kNumJoinPhases> phase_counters = {};

  WorkerStats& operator+=(const WorkerStats& other);

  /// Sum of all phase wall times.
  double TotalSeconds() const;

  /// Counters summed across phases.
  PerfCounters TotalCounters() const;
};

}  // namespace mpsm

#include "parallel/counters.h"

#include "util/bits.h"

namespace mpsm {

const char* JoinPhaseName(JoinPhase phase) {
  switch (phase) {
    case kPhaseSortPublic:
      return "phase 1 (sort public)";
    case kPhasePartition:
      return "phase 2 (partition)";
    case kPhaseSortPrivate:
      return "phase 3 (sort private)";
    case kPhaseJoin:
      return "phase 4 (join)";
    default:
      return "unknown";
  }
}

void PerfCounters::CountSortSlice(uint64_t n, uint64_t whole) {
  if (n == 0) return;
  sort_tuples += n;
  sort_tuple_logs += n * (whole > 1 ? bits::Log2Ceil(whole) : 1);
}

PerfCounters& PerfCounters::operator+=(const PerfCounters& other) {
  bytes_read_local_seq += other.bytes_read_local_seq;
  bytes_read_remote_seq += other.bytes_read_remote_seq;
  bytes_read_local_rand += other.bytes_read_local_rand;
  bytes_read_remote_rand += other.bytes_read_remote_rand;
  bytes_written_local_seq += other.bytes_written_local_seq;
  bytes_written_remote_seq += other.bytes_written_remote_seq;
  bytes_written_local_rand += other.bytes_written_local_rand;
  bytes_written_remote_rand += other.bytes_written_remote_rand;
  sort_tuples += other.sort_tuples;
  sort_tuple_logs += other.sort_tuple_logs;
  sync_acquisitions += other.sync_acquisitions;
  morsels_executed += other.morsels_executed;
  morsels_stolen += other.morsels_stolen;
  io_submits += other.io_submits;
  io_stall_ns += other.io_stall_ns;
  hash_probes += other.hash_probes;
  hash_inserts += other.hash_inserts;
  output_tuples += other.output_tuples;
  return *this;
}

uint64_t PerfCounters::TotalBytes() const {
  return bytes_read_local_seq + bytes_read_remote_seq + bytes_read_local_rand +
         bytes_read_remote_rand + bytes_written_local_seq +
         bytes_written_remote_seq + bytes_written_local_rand +
         bytes_written_remote_rand;
}

WorkerStats& WorkerStats::operator+=(const WorkerStats& other) {
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    phase_seconds[p] += other.phase_seconds[p];
    phase_counters[p] += other.phase_counters[p];
  }
  return *this;
}

double WorkerStats::TotalSeconds() const {
  double total = 0;
  for (double s : phase_seconds) total += s;
  return total;
}

PerfCounters WorkerStats::TotalCounters() const {
  PerfCounters total;
  for (const auto& counters : phase_counters) total += counters;
  return total;
}

}  // namespace mpsm

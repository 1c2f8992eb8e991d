// Pre-sorted public runs shared across joins: the shared-sort layer.
//
// The dominant cost of a P-MPSM join over a large public input S is
// phase 1 — sorting S into runs. When several queued queries join
// *different* private inputs against the *same* S (the fact-table
// pattern a join service sees), that sort is identical work repeated
// per query. BuildPublicRuns materializes S's runs and equi-height
// histograms once; PMpsmJoin::Execute then accepts the result in place
// of its own phase 1, so N compatible queries pay for one sort
// (docs/service.md "Shared-sort batching").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/join_types.h"
#include "numa/arena.h"
#include "parallel/worker_team.h"
#include "partition/equi_height.h"
#include "storage/relation.h"
#include "storage/run.h"
#include "util/status.h"

namespace mpsm {

/// Phase-1 products of a P-MPSM join over one public input, detached
/// from any single execution: one sorted NUMA-homed run per worker
/// plus the equi-height histograms the CDF is built from. Owns the run
/// memory (arenas); immutable once built, so any number of concurrent
/// joins may read it.
struct PublicRuns {
  RunSet runs;
  /// f*T equi-height bounds per run (partition/equi_height.h).
  std::vector<EquiHeightHistogram> histograms;
  /// Team size the base runs were built on. `runs` may hold *more*
  /// than team_size entries — a run-cache view appends sorted delta
  /// runs after the per-worker base runs (docs/cache.md) — but never
  /// fewer, and a consumer team must match this size exactly. 0 =
  /// unknown (hand-assembled), validated by run count alone.
  uint32_t team_size = 0;

  /// Resident size of the materialized runs.
  uint64_t bytes() const {
    uint64_t total = 0;
    for (const Run& run : runs) total += run.size * sizeof(Tuple);
    return total;
  }

  /// Owns the runs' tuples; one arena per producing worker.
  std::vector<std::unique_ptr<numa::Arena>> arenas;
};

/// Sorts `s_public` (chunked into team.size() chunks) into a PublicRuns
/// usable by any PMpsmJoin on a team of the same size. Uses the same
/// run-generation phases as a normal join (sliced stealing under
/// SchedulerKind::kStealing).
Result<PublicRuns> BuildPublicRuns(WorkerTeam& team, const Relation& s_public,
                                   const MpsmOptions& options = {});

}  // namespace mpsm

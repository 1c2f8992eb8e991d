// Run generation: copy a chunk into node-local memory and sort it.
//
// Shared by the MPSM variants' phase 1 and B-MPSM's phase 3. Copying
// remote chunks to local memory before sorting is commandment C1; the
// copy is fused into the sort's first MSD radix pass (the §2.3
// amortization the paper notes), so the chunk is materialized locally
// already grouped by its top radix digit.
//
// Under the stealing scheduler, run generation is additionally sliced
// *below* chunk granularity: a large chunk's generating morsel performs
// only the fused copy + first MSD pass and publishes the 257 bucket
// bounds; stealable bucket-sort morsels finish the run. This removes
// the one-coarse-morsel-per-worker shape that made claim races land a
// worker two whole chunk sorts (docs/scheduler.md "Measured A/B") and
// is what lets stealing be the default scheduler.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "numa/arena.h"
#include "parallel/counters.h"
#include "parallel/task_scheduler.h"
#include "partition/equi_height.h"
#include "sort/radix_introsort.h"
#include "storage/relation.h"
#include "storage/run.h"

namespace mpsm {

/// Copies `chunk` into `arena` (homed on `worker_node`), sorts it
/// under `sort_config`, and returns the resulting run. Counts the copy
/// traffic and the sort work into `counters`.
Run SortChunkIntoRun(const Chunk& chunk, numa::Arena& arena,
                     numa::NodeId worker_node, PerfCounters& counters,
                     const sort::RadixSortConfig& sort_config = {});

/// Per-task state of a split run generation: when task t was split, the
/// generating morsel ran only the copy fused with one MSD radix pass
/// and left bounds/shift here for the bucket-sort morsels. One slot per
/// chunk; each morsel writes only its own slot.
struct RunGenState {
  std::vector<std::array<size_t, sort::kRadixBuckets + 1>> bounds;
  std::vector<uint32_t> shift;
  std::vector<uint8_t> split;

  void Resize(size_t tasks) {
    bounds.resize(tasks);
    shift.assign(tasks, 0);
    split.assign(tasks, 0);
  }
};

/// Like SortChunkIntoRun, but when the chunk exceeds `split_threshold`
/// only the copy + first MSD pass runs;
/// state->split[task] is set and SortRunBuckets morsels must finish
/// the run. split_threshold == 0 disables splitting (always sorts
/// fully). The one pass charges 8 n*log units (it fixes 8 key bits);
/// the bucket morsels charge the rest.
Run GenerateRunInto(const Chunk& chunk, numa::Arena& arena,
                    numa::NodeId worker_node, PerfCounters& counters,
                    const sort::RadixSortConfig& sort_config,
                    uint64_t split_threshold, RunGenState* state,
                    uint32_t task);

/// Morsels of ~morsel_tuples of consecutive buckets for every split
/// task (home == task; begin/end = bucket range) — the eager=false
/// factory of the bucket-sort phase that follows GenerateRunInto.
std::vector<Morsel> BucketSortMorsels(const RunGenState& state,
                                      uint64_t morsel_tuples);

/// Executes one BucketSortMorsels morsel: finishes buckets
/// [morsel.begin, morsel.end) of run `run` (== task morsel.task's run)
/// and charges the per-bucket sort work.
void SortRunBuckets(const Run& run, const RunGenState& state,
                    const Morsel& morsel,
                    const sort::RadixSortConfig& sort_config,
                    PerfCounters& counters);

/// Appends the run-generation steps for `input` to `pipeline`: one
/// morsel per chunk generating runs[w] from input.chunk(w) out of
/// arena_of(w), plus — in stealing mode — the stealable bucket-sort
/// continuation. When `histograms` is non-null, each finished run also
/// yields f*T equi-height bounds (kEquiHeightFactor times the chunk
/// count). `state` and all referenced containers must outlive the
/// pipeline's Run. Under stealing a chunk above 2 * kMorselTuples is
/// split; static mode keeps the paper's fused one-morsel-per-chunk
/// script.
void AddRunGenerationPhases(PhasePipeline& pipeline, JoinPhase slot,
                            const Relation& input,
                            const std::function<numa::Arena&(uint32_t)>& arena_of,
                            RunSet& runs, RunGenState& state,
                            std::vector<EquiHeightHistogram>* histograms,
                            SchedulerKind scheduler);

}  // namespace mpsm

#include "core/run_generation.h"

#include "sort/radix_introsort.h"

namespace mpsm {

Run SortChunkIntoRun(const Chunk& chunk, numa::Arena& arena,
                     numa::NodeId worker_node, PerfCounters& counters,
                     const sort::RadixSortConfig& sort_config) {
  Run run;
  run.size = chunk.size;
  run.node = arena.node();
  if (chunk.size == 0) return run;

  run.data = arena.AllocateArray<Tuple>(chunk.size);
  // The copy into local memory is fused with the sort's first MSD
  // radix pass (§2.3's amortization; SortCopyInto), saving one full
  // read+write sweep over the chunk. The counters keep charging the
  // materializing copy plus the full sort so that the cost model stays
  // comparable with the unfused sort (the fusion is a wall-clock win
  // the tab_sort bench measures, not a modeled-bytes change).
  sort::SortCopyInto(chunk.data, chunk.size, run.data, sort_config,
                     /*src_is_local=*/chunk.node == worker_node);
  counters.CountRead(chunk.node == worker_node, /*sequential=*/true,
                     chunk.size * sizeof(Tuple));
  // The run stays homed on the arena's node; a stolen run-generation
  // morsel writes it across the interconnect.
  counters.CountWrite(run.node == worker_node, /*sequential=*/true,
                      chunk.size * sizeof(Tuple));
  counters.CountSort(run.size);
  return run;
}

Run GenerateRunInto(const Chunk& chunk, numa::Arena& arena,
                    numa::NodeId worker_node, PerfCounters& counters,
                    const sort::RadixSortConfig& sort_config,
                    uint64_t split_threshold, RunGenState* state,
                    uint32_t task) {
  const bool splittable = split_threshold != 0 && state != nullptr &&
                          chunk.size > split_threshold;
  if (!splittable) {
    return SortChunkIntoRun(chunk, arena, worker_node, counters, sort_config);
  }

  Run run;
  run.size = chunk.size;
  run.node = arena.node();
  run.data = arena.AllocateArray<Tuple>(chunk.size);
  state->bounds[task] = sort::MsdRadixPartitionCopy(
      chunk.data, chunk.size, run.data, &state->shift[task],
      sort_config.simd);
  state->split[task] = 1;
  // Same modeled traffic as the fused whole-chunk sort; the one
  // 256-way pass fixes 8 key bits, so charge 8 n*log units — the
  // bucket morsels charge the rest.
  counters.CountRead(chunk.node == worker_node, /*sequential=*/true,
                     chunk.size * sizeof(Tuple));
  counters.CountWrite(run.node == worker_node, /*sequential=*/true,
                      chunk.size * sizeof(Tuple));
  counters.sort_tuple_logs += uint64_t{8} * chunk.size;
  return run;
}

std::vector<Morsel> BucketSortMorsels(const RunGenState& state,
                                      uint64_t morsel_tuples) {
  std::vector<Morsel> morsels;
  for (uint32_t t = 0; t < state.split.size(); ++t) {
    if (!state.split[t]) continue;
    const auto& bounds = state.bounds[t];
    uint32_t first = 0;
    uint64_t acc = 0;
    for (uint32_t b = 0; b < sort::kRadixBuckets; ++b) {
      acc += bounds[b + 1] - bounds[b];
      if (acc >= morsel_tuples || b + 1 == sort::kRadixBuckets) {
        if (acc > 0) {
          morsels.push_back(Morsel{t, t, first, b + 1});
        }
        first = b + 1;
        acc = 0;
      }
    }
  }
  return morsels;
}

void SortRunBuckets(const Run& run, const RunGenState& state,
                    const Morsel& morsel,
                    const sort::RadixSortConfig& sort_config,
                    PerfCounters& counters) {
  const uint32_t t = morsel.task;
  const auto& bounds = state.bounds[t];
  sort::SortMsdBuckets(run.data, bounds, static_cast<uint32_t>(morsel.begin),
                       static_cast<uint32_t>(morsel.end), state.shift[t],
                       sort_config);
  for (uint64_t b = morsel.begin; b < morsel.end; ++b) {
    counters.CountSort(bounds[b + 1] - bounds[b]);
  }
}

void AddRunGenerationPhases(PhasePipeline& pipeline, JoinPhase slot,
                            const Relation& input,
                            const std::function<numa::Arena&(uint32_t)>& arena_of,
                            RunSet& runs, RunGenState& state,
                            std::vector<EquiHeightHistogram>* histograms,
                            SchedulerKind scheduler) {
  const uint32_t num_chunks = input.num_chunks();
  const uint32_t num_bounds = kEquiHeightFactor * num_chunks;
  state.Resize(num_chunks);
  const bool stealing = scheduler == SchedulerKind::kStealing;

  // Only split chunks whose bucket sorts amount to more than one
  // morsel; below that the split costs a barrier without spreading any
  // work.
  const uint64_t split_threshold = stealing ? 2 * kMorselTuples : 0;

  const auto arenas = arena_of;  // copy: the reference param dies at return
  pipeline.AddPhase(
      slot, [num_chunks] { return ChunkMorsels(num_chunks); },
      [&input, &runs, &state, arenas, histograms, num_bounds, slot,
       split_threshold, stealing](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        PerfCounters& counters = ctx.Counters(slot);
        runs[w] = GenerateRunInto(input.chunk(w), arenas(w), ctx.node,
                                  counters, sort::RadixSortConfig{},
                                  split_threshold, &state, w);
        // Static mode keeps the paper's fused script: the run is fully
        // sorted here, so the histogram rides along for free (§4.1).
        // Stealing mode defers it until the bucket sorts finished.
        if (!stealing && histograms != nullptr) {
          (*histograms)[w] = BuildEquiHeightHistogram(runs[w], num_bounds);
          counters.CountRead(runs[w].node == ctx.node, /*sequential=*/false,
                             uint64_t{num_bounds} * sizeof(Tuple));
        }
      });

  if (stealing) {
    pipeline.AddPhase(
        slot,
        [&state] { return BucketSortMorsels(state, kMorselTuples); },
        [&runs, &state, slot](WorkerContext& ctx, const Morsel& morsel) {
          SortRunBuckets(runs[morsel.task], state, morsel,
                         sort::RadixSortConfig{}, ctx.Counters(slot));
        },
        PhasePipeline::PhaseOptions{.eager = false});
    if (histograms != nullptr) {
      pipeline.AddPhase(
          slot, [num_chunks] { return ChunkMorsels(num_chunks); },
          [&runs, histograms, num_bounds, slot](WorkerContext& ctx,
                                                const Morsel& morsel) {
            const uint32_t w = morsel.task;
            (*histograms)[w] = BuildEquiHeightHistogram(runs[w], num_bounds);
            ctx.Counters(slot).CountRead(runs[w].node == ctx.node,
                                         /*sequential=*/false,
                                         uint64_t{num_bounds} * sizeof(Tuple));
          });
    }
  }
}

}  // namespace mpsm

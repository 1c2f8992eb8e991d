#include "core/b_mpsm.h"

#include <vector>

#include "core/merge_join.h"
#include "core/run_generation.h"
#include "parallel/task_scheduler.h"
#include "util/timer.h"

namespace mpsm {

Result<JoinRunInfo> BMpsmJoin::Execute(WorkerTeam& team,
                                       const Relation& r_private,
                                       const Relation& s_public,
                                       ConsumerFactory& consumers) const {
  const uint32_t num_workers = team.size();
  if (r_private.num_chunks() != num_workers ||
      s_public.num_chunks() != num_workers) {
    return Status::InvalidArgument(
        "relations must be chunked into team.size() chunks");
  }

  RunSet s_runs(num_workers);
  RunSet r_runs(num_workers);
  // Both run sets die with the query. They live in the session team's
  // worker arenas, rewound here so this query reuses the pages the
  // previous one faulted in (numa/arena.h).
  for (uint32_t w = 0; w < num_workers; ++w) team.ArenaOf(w).Reset();

  const MpsmOptions options = options_;
  RunJoinOptions join_options;
  join_options.kind = options.kind;
  join_options.search = options.start_search;

  PhasePipeline pipeline(team.topology(), num_workers, options.scheduler);
  const auto arena_of = [&team](uint32_t w) -> numa::Arena& {
    return team.ArenaOf(w);
  };

  // Phase 1: sort each public chunk into a local run via the shared
  // run-generation steps (core/run_generation.h; sliced below chunk
  // granularity under stealing). The run stays homed on the chunk's
  // worker even when a morsel is stolen (the arena belongs to the
  // task, not the executor). The closing barrier is the one mandatory
  // synchronization point: all public runs must be complete before any
  // worker starts joining against them.
  RunGenState s_gen;
  AddRunGenerationPhases(pipeline, kPhaseSortPublic, s_public, arena_of,
                         s_runs, s_gen, /*histograms=*/nullptr,
                         options.scheduler);

  // Phase 3 slot: sort the private chunks (B-MPSM has no partition
  // phase; the kPhasePartition slot stays empty).
  RunGenState r_gen;
  AddRunGenerationPhases(pipeline, kPhaseSortPrivate, r_private, arena_of,
                         r_runs, r_gen, /*histograms=*/nullptr,
                         options.scheduler);

  // Phase 4: merge join the private runs against all public runs, one
  // morsel per (private run i, public run j, slice of i) with the
  // public runs staggered per i (MergeJoinMorsels). Static scheduling
  // slices whole runs, so worker w walks the paper's script over its
  // own run; lazy, so the slicing sees the finished runs.
  pipeline.AddPhase(
      kPhaseJoin,
      [&] {
        return MergeJoinMorsels(r_runs, num_workers, options.kind,
                                MorselSlice(options.scheduler));
      },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        ExecuteMergeJoinMorsel(morsel, r_runs, s_runs, join_options,
                               consumers.ConsumerForWorker(ctx.worker_id),
                               ctx.node, &ctx.Counters(kPhaseJoin));
      },
      PhasePipeline::PhaseOptions{.eager = false});

  WallTimer timer;
  pipeline.Run(team);
  return CollectRunInfo(team, timer.ElapsedSeconds());
}

}  // namespace mpsm

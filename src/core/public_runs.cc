#include "core/public_runs.h"

#include "core/run_generation.h"
#include "parallel/task_scheduler.h"

namespace mpsm {

Result<PublicRuns> BuildPublicRuns(WorkerTeam& team, const Relation& s_public,
                                   const MpsmOptions& options) {
  const uint32_t num_workers = team.size();
  if (s_public.num_chunks() != num_workers) {
    return Status::InvalidArgument(
        "public relation must be chunked into team.size() chunks");
  }

  PublicRuns out;
  out.runs.resize(num_workers);
  out.histograms.resize(num_workers);
  out.team_size = num_workers;
  out.arenas.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    out.arenas.push_back(std::make_unique<numa::Arena>(
        team.topology().NodeForWorker(w, num_workers)));
  }

  RunGenState state;
  PhasePipeline pipeline(team.topology(), num_workers, options.scheduler);
  AddRunGenerationPhases(
      pipeline, kPhaseSortPublic, s_public,
      [&out](uint32_t w) -> numa::Arena& { return *out.arenas[w]; }, out.runs,
      state, &out.histograms, options.scheduler);
  pipeline.Run(team);
  return out;
}

}  // namespace mpsm

// mpsm::engine::Engine — the library's one front door.
//
// Callers describe a join (JoinSpec: inputs, kind, memory budget,
// consumer) and the engine does the rest: it probes the NUMA topology
// once, builds a worker team once, plans the algorithm per query with
// the cost-model planner, validates every knob, runs the chosen
// variant, and returns one unified JoinReport. Sessions are meant to
// be long-lived: repeated Execute() calls amortize the topology probe,
// the worker team and its node-homed arenas across queries. The arenas
// keep the last P-MPSM or B-MPSM query's run memory, so the next such
// query reuses pages already faulted in. The session frees that memory
// before any other plan runs, when the team is re-spawned for a new
// size, and when the engine is destroyed. (WorkerTeam::Run still
// launches its pinned threads per query.)
//
//   engine::Engine engine;                    // probe + defaults
//   engine::JoinSpec spec;
//   spec.r = &orders; spec.s = &orderlines;
//   spec.consumers = &aggregate;
//   auto report = engine.Execute(spec);       // planned, validated, run
//   std::puts(report->plan.ToString().c_str());
//
// The variant classes (PMpsmJoin, DMpsmJoin, ...) remain available as
// the internal layer for tests and kernel benches; examples, the
// query harness, and the figure benches all go through the engine.
// EngineOptions holds the variants' own option structs (mpsm, dmpsm),
// so a knob set on a session is the knob the variant reads.
// API tour: docs/engine.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/join_stats.h"
#include "core/p_mpsm.h"
#include "disk/d_mpsm.h"
#include "engine/planner.h"
#include "numa/topology.h"
#include "obs/trace.h"
#include "parallel/worker_team.h"
#include "util/status.h"

namespace mpsm::cache {
class RunCache;
}  // namespace mpsm::cache

namespace mpsm::engine {

/// Where the public (S) runs a query joined against came from.
enum class RunSource {
  kFreshSort,    // phase 1 (or BuildPublicRuns) sorted S this query
  kSharedRuns,   // caller-supplied spec.shared_public_runs
  kCachedBase,   // run-cache hit, no pending deltas
  kCachedMerge,  // run-cache hit + delta runs (merge-on-read)
};

const char* RunSourceName(RunSource source);

/// Everything one executed join produced, across all variants:
/// JoinRunInfo (all), P-MPSM splitter diagnostics, D-MPSM spill
/// report — plus the plan that chose the variant.
struct JoinReport {
  /// The plan that was executed (algorithm, predictions, knobs).
  JoinPlan plan;

  /// Provenance of the public runs this query consumed. kCached* only
  /// appears when a run cache is attached (set_run_cache); a stale
  /// cached plan that failed Execute-time re-validation reports the
  /// fresh-sort fallback it actually ran, never the cached source.
  RunSource run_source = RunSource::kFreshSort;
  /// Delta tuples merged on read (kCachedMerge only).
  uint64_t cache_delta_tuples = 0;

  /// Execution statistics (wall time, per-worker counters, output
  /// cardinality).
  JoinRunInfo info;

  /// Measured counterpart of plan.predicted_phase_seconds: max over
  /// workers of each phase's wall time (info.MaxPhaseSeconds), so
  /// predicted-vs-measured sits side by side in one report. Feeds the
  /// recalibration pass (sim/calibration.h).
  std::array<double, kNumJoinPhases> measured_phase_seconds{};
  /// Sum of measured_phase_seconds (== info.critical_path_seconds).
  double measured_seconds = 0;

  /// Concrete vector ISA the kernels ran on (KernelSimdKind of the
  /// chosen algorithm: the host's widest kind, or MPSM_SIMD's; kScalar
  /// for the wisconsin baseline).
  simd::SimdKind simd_used = simd::SimdKind::kScalar;

  /// Planner overhead for this query, in seconds.
  double plan_seconds = 0;

  /// Splitter/CDF internals; set when a P-MPSM plan ran.
  std::optional<PMpsmDiagnostics> pmpsm;

  /// Spill observability (I/O, pool peaks); set when a D-MPSM plan ran.
  std::optional<disk::DMpsmReport> dmpsm;

  /// Engine-assigned (or caller-provided, JoinSpec::query_id) id of
  /// this query; the Chrome trace's pid and the service's log key.
  uint64_t query_id = 0;

  /// Wall nanoseconds the query waited for admission (join service;
  /// 0 for direct Engine callers).
  uint64_t admission_wait_ns = 0;

  /// The query's trace (EngineOptions::trace); null when tracing was
  /// off. Export with trace->ToChromeJson() (Perfetto-loadable).
  std::shared_ptr<obs::TraceSink> trace;

  /// The whole report as one JSON object: plan, predicted vs measured
  /// phases, aggregate counters, variant reports, trace summary. The
  /// figure benches emit this under MPSM_BENCH_REPORT_JSON.
  std::string ToJson() const;

  /// EXPLAIN ANALYZE: plan.ToString plus predicted-vs-measured
  /// per-phase cost for this execution.
  std::string ExplainAnalyzeString() const;
};

/// Session-lifetime observability: proves reuse across queries.
struct SessionStats {
  uint64_t queries_executed = 0;
  uint64_t plans_created = 0;
  /// Worker-team spawns. Stays at 1 across a session as long as every
  /// query's inputs are chunked for the same team size.
  uint64_t team_spawns = 0;
  /// Topology probes performed by this engine (0 when injected, else
  /// exactly 1 — never per query).
  uint64_t topology_probes = 0;
  /// Total planner overhead across queries, in seconds.
  double plan_seconds_total = 0;

  /// Run-cache traffic from this session's queries (the cache's own
  /// stats() aggregate across every session sharing it).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_installs = 0;
  /// MaterializedView builds (a delta-bearing relation fed to a
  /// non-merge path).
  uint64_t cache_materializations = 0;
};

/// A reusable query session: topology + worker team + planner.
class Engine {
 public:
  /// Probes the host topology (once, at construction).
  explicit Engine(EngineOptions options = {});

  /// Uses an explicit (e.g. simulated) topology instead of probing.
  Engine(const numa::Topology& topology, EngineOptions options = {});

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Plans and runs one join, streaming output to spec.consumers.
  Result<JoinReport> Execute(const JoinSpec& spec);

  /// Execute with crash recovery forced on (docs/recovery.md): if a
  /// previous incarnation of this exact query (same inputs, versions,
  /// team size, page geometry) left a durable manifest — e.g. the
  /// process was killed mid-spill — its spooled runs are re-attached
  /// and completed chunks are skipped; otherwise this is a cold but
  /// journaled run. Only meaningful for spilling (D-MPSM) plans;
  /// in-memory plans execute normally. Check
  /// report.dmpsm->resumed / chunks_skipped for what was salvaged.
  Result<JoinReport> Resume(const JoinSpec& spec);

  /// Plans without executing (EXPLAIN). Does not spawn the team.
  Result<JoinPlan> Plan(const JoinSpec& spec) const;

  const numa::Topology& topology() const { return topology_; }
  const EngineOptions& options() const { return options_; }

  /// Replaces the session options; takes effect from the next query.
  /// The team is kept (only a changed `workers` forces a re-spawn).
  /// Resets any recalibration drift to the starting cost model.
  void set_options(EngineOptions options) {
    options_ = std::move(options);
    calibrated_machine_.reset();
  }

  const SessionStats& stats() const { return stats_; }

  /// The cost model the next query will be planned with. Starts as
  /// Planner::PlanningMachine's HyPer1-derived model and — under
  /// options().recalibrate — drifts toward this host's measured
  /// coefficients query by query.
  sim::MachineModel machine() const;

  /// Attaches a cross-query run cache (cache/run_cache.h): P-MPSM
  /// public runs are installed after a cold sort and reused —
  /// merge-on-read over any ingested deltas — on repeat joins of the
  /// same public input. One cache may be shared by many engines (the
  /// join service wires one across its lanes). nullptr detaches. The
  /// cache must outlive the engine.
  void set_run_cache(cache::RunCache* cache) { run_cache_ = cache; }
  cache::RunCache* run_cache() const { return run_cache_; }

  /// Appends tuples to `rel`'s logical content through the session's
  /// run cache as a sorted delta run (requires set_run_cache). The
  /// next join touching `rel` sees the rows — merge-on-read when runs
  /// are cached, via a materialized view otherwise. Returns the new
  /// relation version.
  Result<uint64_t> Ingest(Relation& rel, const Tuple* tuples, size_t n);
  Result<uint64_t> Ingest(Relation& rel, const std::vector<Tuple>& tuples) {
    return Ingest(rel, tuples.data(), tuples.size());
  }

  /// The session's worker team; nullptr before the first Execute.
  WorkerTeam* team() { return team_.get(); }

  /// Spawns (or reuses) the session team at `team_size` ahead of any
  /// Execute. The join service sorts shared public runs on it
  /// (core/public_runs.h) before the batched Executes reuse the same
  /// team.
  WorkerTeam& EnsureTeam(uint32_t team_size) { return TeamFor(team_size); }

  /// Team size a query with these inputs will run on (callers size
  /// their per-worker consumers with this).
  uint32_t TeamSizeFor(const JoinSpec& spec) const;

 private:
  /// Returns the session team, spawning or re-spawning only when the
  /// required size changed.
  WorkerTeam& TeamFor(uint32_t team_size);

  /// A planner over `options` and the session's cost model.
  Planner SessionPlanner(const EngineOptions& options) const;

  /// What the run cache would serve for spec.s (Peek at this team
  /// size); nullopt without a cache, with caller-shared runs, or on a
  /// miss. Plan and Execute price with it.
  std::optional<CachedRunsHint> CachedRunsHintFor(const JoinSpec& spec,
                                                  uint32_t team_size) const;

  numa::Topology topology_;
  EngineOptions options_;
  std::unique_ptr<WorkerTeam> team_;
  SessionStats stats_;
  cache::RunCache* run_cache_ = nullptr;
  /// The session cost model under recalibration, handed to every
  /// planner; until the first recalibrating query sets it, planners
  /// price with their HyPer1-derived model.
  std::optional<sim::MachineModel> calibrated_machine_;
};

}  // namespace mpsm::engine

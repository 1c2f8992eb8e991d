#include "engine/engine.h"

#include <atomic>
#include <utility>

#include "baseline/radix_join.h"
#include "baseline/wisconsin_join.h"
#include "cache/run_cache.h"
#include "core/b_mpsm.h"
#include "core/public_runs.h"
#include "obs/metrics.h"
#include "recovery/recovery_manager.h"
#include "sim/calibration.h"
#include "simd/caps.h"
#include "util/json.h"
#include "util/timer.h"

namespace mpsm::engine {

namespace {
/// Engine-assigned query ids; process-wide so concurrent sessions
/// (service lanes) never collide on the trace pid.
std::atomic<uint64_t> g_next_query_id{1};
}  // namespace

const char* RunSourceName(RunSource source) {
  switch (source) {
    case RunSource::kFreshSort:
      return "fresh-sort";
    case RunSource::kSharedRuns:
      return "shared-runs";
    case RunSource::kCachedBase:
      return "cached-base";
    case RunSource::kCachedMerge:
      return "cached-merge";
  }
  return "unknown";
}

Engine::Engine(EngineOptions options)
    : topology_(numa::Topology::Probe()), options_(std::move(options)) {
  stats_.topology_probes = 1;
}

Engine::Engine(const numa::Topology& topology, EngineOptions options)
    : topology_(topology), options_(std::move(options)) {}

Engine::~Engine() = default;

uint32_t Engine::TeamSizeFor(const JoinSpec& spec) const {
  const EngineOptions& options = spec.options ? *spec.options : options_;
  if (options.workers != 0) return options.workers;
  if (spec.r != nullptr && spec.r->num_chunks() != 0) {
    return spec.r->num_chunks();
  }
  return std::max(topology_.num_cores(), 1u);
}

WorkerTeam& Engine::TeamFor(uint32_t team_size) {
  if (team_ == nullptr || team_->size() != team_size) {
    team_ = std::make_unique<WorkerTeam>(topology_, team_size);
    ++stats_.team_spawns;
  }
  return *team_;
}

sim::MachineModel Engine::machine() const {
  if (calibrated_machine_.has_value()) return *calibrated_machine_;
  return Planner(&topology_, &options_).PlanningMachine();
}

Result<uint64_t> Engine::Ingest(Relation& rel, const Tuple* tuples,
                                size_t n) {
  if (run_cache_ == nullptr) {
    return Status::InvalidArgument(
        "Ingest needs a run cache: call set_run_cache first");
  }
  if (rel.id() == 0) {
    return Status::InvalidArgument(
        "relation has no identity (default-constructed): ingest targets "
        "must come from Relation::Allocate or Relation::FromVector");
  }
  return run_cache_->Ingest(rel, tuples, n);
}

std::optional<CachedRunsHint> Engine::CachedRunsHintFor(
    const JoinSpec& spec, uint32_t team_size) const {
  if (run_cache_ == nullptr || spec.shared_public_runs != nullptr ||
      spec.s == nullptr) {
    return std::nullopt;
  }
  const auto peek = run_cache_->Peek(*spec.s, team_size);
  if (!peek.hit) return std::nullopt;
  return CachedRunsHint{peek.delta_tuples, peek.delta_runs};
}

Result<JoinPlan> Engine::Plan(const JoinSpec& spec) const {
  const EngineOptions& options = spec.options ? *spec.options : options_;
  const uint32_t team_size = TeamSizeFor(spec);
  const auto hint = CachedRunsHintFor(spec, team_size);
  return Planner(&topology_, &options)
      .Plan(spec, team_size, hint ? &*hint : nullptr);
}

Result<JoinReport> Engine::Execute(const JoinSpec& spec) {
  if (spec.r == nullptr || spec.s == nullptr) {
    return Status::InvalidArgument("JoinSpec needs both input relations");
  }
  if (spec.consumers == nullptr) {
    return Status::InvalidArgument("JoinSpec needs a consumer factory");
  }
  const EngineOptions& options = spec.options ? *spec.options : options_;
  const uint32_t team_size = TeamSizeFor(spec);

  JoinReport report;
  report.query_id = spec.query_id != 0
                        ? spec.query_id
                        : g_next_query_id.fetch_add(
                              1, std::memory_order_relaxed);
  report.admission_wait_ns = spec.admission_wait_ns;
  if (options.trace) {
    report.trace = std::make_shared<obs::TraceSink>(report.query_id);
  }
  obs::TraceSink* sink = report.trace.get();
  obs::ScopedTraceThread trace_scope(sink, "caller", 0);
  const int64_t query_start_ns = sink != nullptr ? sink->NowNs() : 0;
  if (sink != nullptr && spec.admission_wait_ns > 0) {
    // The wait happened before Execute was entered: record it as a
    // retroactive span ending at the query's start.
    sink->RecordSpan(
        obs::kCatService, "admission.wait",
        query_start_ns - static_cast<int64_t>(spec.admission_wait_ns),
        static_cast<int64_t>(spec.admission_wait_ns));
  }

  // Effective inputs: a relation with delta-ingested tuples is
  // logically base + delta log (cache/run_cache.h). The cached P-MPSM
  // path below merges S's deltas on read; every *other* reader of a
  // delta-bearing relation gets the cache's materialized view in place
  // of the stale base storage.
  JoinSpec run_spec = spec;
  std::shared_ptr<const Relation> r_view;
  if (run_cache_ != nullptr &&
      run_cache_->PendingDeltaTuples(*spec.r) > 0) {
    r_view = run_cache_->MaterializedView(*spec.r, topology_, team_size);
    if (r_view != nullptr) {
      run_spec.r = r_view.get();
      ++stats_.cache_materializations;
    }
  }
  if (run_spec.r->num_chunks() != team_size ||
      run_spec.s->num_chunks() != team_size) {
    return Status::InvalidArgument(
        "inputs must be chunked into one chunk per worker (" +
        std::to_string(team_size) + "): |R| chunks = " +
        std::to_string(run_spec.r->num_chunks()) + ", |S| chunks = " +
        std::to_string(run_spec.s->num_chunks()));
  }

  // Every thread that runs this query — workers and the pool's
  // flusher — records into the query's sink; cleared on every
  // exit path so the session team never carries a dead sink.
  WorkerTeam* traced_team = nullptr;
  if (sink != nullptr) {
    traced_team = &TeamFor(team_size);
    traced_team->set_trace(sink);
  }
  struct TeamTraceReset {
    WorkerTeam* team;
    ~TeamTraceReset() {
      if (team != nullptr) team->set_trace(nullptr);
    }
  } team_trace_reset{traced_team};

  WallTimer plan_timer;
  {
    const auto hint = CachedRunsHintFor(spec, team_size);
    obs::TraceSpan plan_span(obs::kCatPlan, "plan");
    MPSM_ASSIGN_OR_RETURN(report.plan,
                          Planner(&topology_, &options)
                              .Plan(run_spec, team_size,
                                    hint ? &*hint : nullptr));
  }
  report.plan_seconds = plan_timer.ElapsedSeconds();
  ++stats_.plans_created;
  stats_.plan_seconds_total += report.plan_seconds;
  report.simd_used = KernelSimdKind(report.plan.algorithm);

  if (spec.shared_public_runs != nullptr &&
      report.plan.algorithm != Algorithm::kPMpsm) {
    return Status::InvalidArgument(
        "shared public runs require a P-MPSM plan (got " +
        std::string(AlgorithmName(report.plan.algorithm)) +
        "); force Algorithm::kPMpsm");
  }

  // Resolve the public-run source. The holders below pin whatever the
  // executed join reads past any concurrent eviction or compaction.
  const PublicRuns* shared_runs = spec.shared_public_runs;
  if (shared_runs != nullptr) report.run_source = RunSource::kSharedRuns;
  cache::CachedView cached_view;            // pins a warm cached view
  std::shared_ptr<const PublicRuns> built;  // pins a cold install
  std::shared_ptr<const Relation> s_view;   // pins a materialized S
  if (run_cache_ != nullptr && shared_runs == nullptr &&
      report.plan.algorithm == Algorithm::kPMpsm) {
    if (report.plan.cached_runs.use) {
      // Stale-plan hazard: an Ingest, eviction, or external version
      // bump between Plan and Execute invalidates the priced view.
      // Re-validate here; the failover is the cold path's fresh sort,
      // never stale runs.
      cached_view = run_cache_->Lookup(*spec.s, team_size);
      if (cached_view.valid()) {
        shared_runs = &cached_view.view;
        report.run_source = cached_view.delta_tuples > 0
                                ? RunSource::kCachedMerge
                                : RunSource::kCachedBase;
        report.cache_delta_tuples = cached_view.delta_tuples;
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
      }
    } else if (!report.plan.cached_runs.available) {
      ++stats_.cache_misses;
    }
    if (shared_runs == nullptr) {
      // Cold (or stale, or fresh-is-cheaper) path: sort S once on the
      // session team, install the runs for the next query, and execute
      // against them — phase 1 is never paid twice. Capture the
      // covered version *before* building so a concurrent Ingest is
      // never claimed as covered.
      const Relation* s_input = run_spec.s;
      uint64_t covers = spec.s->version();
      if (run_cache_->PendingDeltaTuples(*spec.s) > 0) {
        s_view = run_cache_->MaterializedView(*spec.s, topology_,
                                              team_size, &covers);
        if (s_view != nullptr) {
          s_input = s_view.get();
          ++stats_.cache_materializations;
        }
      }
      auto runs = std::make_shared<PublicRuns>();
      MPSM_ASSIGN_OR_RETURN(*runs, BuildPublicRuns(TeamFor(team_size),
                                                   *s_input, report.plan.mpsm));
      built = std::move(runs);
      shared_runs = built.get();
      report.run_source = RunSource::kFreshSort;
      if (spec.s->id() != 0 &&
          run_cache_->Install(spec.s->id(), team_size, covers, built)) {
        ++stats_.cache_installs;
      }
    }
  } else if (run_cache_ != nullptr && spec.shared_public_runs == nullptr &&
             run_cache_->PendingDeltaTuples(*spec.s) > 0) {
    // Non-P-MPSM plan reading a delta-bearing S: materialize.
    s_view = run_cache_->MaterializedView(*spec.s, topology_, team_size);
    if (s_view != nullptr) {
      run_spec.s = s_view.get();
      ++stats_.cache_materializations;
    }
  }

  WorkerTeam& team = TeamFor(team_size);
  // P-MPSM and B-MPSM rewind the team arenas and reuse the previous
  // query's run memory. No other plan allocates from them, so free
  // that memory first: a budgeted spill must not run next to it.
  if (report.plan.algorithm != Algorithm::kPMpsm &&
      report.plan.algorithm != Algorithm::kBMpsm) {
    team.ReleaseArenas();
  }
  Result<JoinRunInfo> info = Status::Internal("unreachable");
  const int64_t exec_start_ns = sink != nullptr ? sink->NowNs() : 0;
  switch (report.plan.algorithm) {
    case Algorithm::kPMpsm: {
      report.pmpsm.emplace();
      info = PMpsmJoin(report.plan.mpsm)
                 .Execute(team, *run_spec.r, *run_spec.s, *spec.consumers,
                          &*report.pmpsm, shared_runs);
      break;
    }
    case Algorithm::kBMpsm:
      info = BMpsmJoin(report.plan.mpsm)
                 .Execute(team, *run_spec.r, *run_spec.s, *spec.consumers);
      break;
    case Algorithm::kDMpsm: {
      report.dmpsm.emplace();
      disk::DMpsmOptions dmpsm_options = report.plan.dmpsm;
      std::optional<recovery::ResumeState> resume_state;
      if (options.recovery.enabled) {
        // Crash-safe restartability (docs/recovery.md): fingerprint
        // the query, load any durable state a previous incarnation
        // committed, and run with a journal. A manifest that fails
        // validation yields an empty ResumeState — a cold but still
        // journaled run. Only a real device error reading the
        // manifest fails the query.
        const recovery::QueryFingerprint fp = recovery::FingerprintFor(
            *run_spec.r, *run_spec.s, team_size,
            dmpsm_options.tuples_per_page);
        recovery::RecoveryManagerOptions manager_options;
        manager_options.dir = options.recovery.dir.empty()
                                  ? dmpsm_options.directory
                                  : options.recovery.dir;
        manager_options.verify_runs = options.recovery.verify_runs;
        manager_options.tuples_per_page = dmpsm_options.tuples_per_page;
        recovery::RecoveryManager manager(manager_options);
        auto loaded = manager.Load(fp);
        if (!loaded.ok()) {
          info = loaded.status();
          break;
        }
        resume_state = std::move(loaded).value();
        dmpsm_options.recovery.journal = true;
        dmpsm_options.recovery.journal_path = manager.JournalPath(fp);
        dmpsm_options.recovery.spool_path = manager.SpoolPath(fp);
        dmpsm_options.recovery.resume = &*resume_state;
      }
      info = disk::DMpsmJoin(dmpsm_options)
                 .Execute(team, *run_spec.r, *run_spec.s, *spec.consumers,
                          &*report.dmpsm);
      break;
    }
    case Algorithm::kRadix:
      info = baseline::RadixHashJoin().Execute(team, *run_spec.r, *run_spec.s,
                                               *spec.consumers);
      break;
    case Algorithm::kWisconsin:
      info = baseline::WisconsinHashJoin().Execute(
          team, *run_spec.r, *run_spec.s, *spec.consumers);
      break;
  }
  if (sink != nullptr) {
    sink->RecordSpan(obs::kCatQuery, "execute", exec_start_ns,
                     sink->NowNs() - exec_start_ns);
  }
  if (!info.ok()) return info.status();
  report.info = std::move(info).value();
  report.measured_phase_seconds = report.info.MaxPhaseSeconds();
  report.measured_seconds = report.info.critical_path_seconds;
  ++stats_.queries_executed;

  // Close the planner feedback loop: fold this run's effective
  // coefficients into the session model so the next plan's predictions
  // track this host. Session options only — a per-query override must
  // not steer the session model. Runs that skipped phase 1 (shared or
  // cached public runs) are not representative observations.
  if (spec.options == nullptr && options_.recalibrate &&
      shared_runs == nullptr) {
    sim::MachineModel model = machine();
    sim::Recalibrate(model,
                     sim::ObserveRun(report.info.workers,
                                     simd::KeysPerCompare(report.simd_used)));
    calibrated_machine_ = model;
    options_.machine = model;
  }

  static obs::Counter& queries_total = obs::MetricsRegistry::Global().counter(
      "mpsm_engine_queries_total", "Joins executed by engine sessions");
  static obs::Histogram& query_duration =
      obs::MetricsRegistry::Global().histogram(
          "mpsm_engine_query_duration_ns",
          "Measured critical-path time per executed join");
  queries_total.Add(1);
  query_duration.Record(
      static_cast<uint64_t>(report.measured_seconds * 1e9));
  if (sink != nullptr) {
    sink->RecordSpan(obs::kCatQuery, "query", query_start_ns,
                     sink->NowNs() - query_start_ns, "query_id",
                     report.query_id);
  }
  return report;
}

Result<JoinReport> Engine::Resume(const JoinSpec& spec) {
  // A local options copy with recovery switched on; planning stays
  // deterministic, so a crashed D-MPSM run replans to D-MPSM and finds
  // its manifest under the same fingerprint.
  EngineOptions options = spec.options ? *spec.options : options_;
  options.recovery.enabled = true;
  JoinSpec resume_spec = spec;
  resume_spec.options = &options;
  return Execute(resume_spec);
}

std::string JoinReport::ExplainAnalyzeString() const {
  JoinPlan::ExplainAnalyze analyze;
  analyze.measured_phase_seconds = measured_phase_seconds;
  analyze.measured_seconds = measured_seconds;
  analyze.output_tuples = info.output_tuples;
  analyze.run_source = RunSourceName(run_source);
  return plan.ToString(analyze);
}

std::string JoinReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("query_id", query_id);
  w.Field("algorithm", AlgorithmName(plan.algorithm));
  w.Field("join_kind", JoinKindName(plan.inputs.kind));
  w.Field("run_source", RunSourceName(run_source));
  w.Field("simd_used", simd::SimdKindName(simd_used));
  w.Field("cache_delta_tuples", cache_delta_tuples);
  w.Field("admission_wait_ns", admission_wait_ns);
  w.Field("plan_seconds", plan_seconds);

  w.Key("plan");
  w.BeginObject();
  w.Field("r_tuples", plan.inputs.r_tuples);
  w.Field("s_tuples", plan.inputs.s_tuples);
  w.Field("team_size", plan.inputs.team_size);
  w.Field("numa_nodes", plan.inputs.numa_nodes);
  w.Field("memory_budget_bytes", plan.inputs.memory_budget_bytes);
  w.Field("working_set_bytes", plan.inputs.working_set_bytes);
  w.Field("predicted_seconds", plan.predicted_seconds);
  w.Key("predicted_phase_seconds");
  w.BeginArray();
  for (double s : plan.predicted_phase_seconds) w.Value(s);
  w.EndArray();
  w.Field("rationale", plan.rationale);
  w.EndObject();

  w.Key("measured");
  w.BeginObject();
  w.Field("wall_seconds", info.wall_seconds);
  w.Field("critical_path_seconds", measured_seconds);
  w.Key("phase_seconds");
  w.BeginArray();
  for (double s : measured_phase_seconds) w.Value(s);
  w.EndArray();
  w.Field("output_tuples", info.output_tuples);
  w.EndObject();

  const PerfCounters totals = info.aggregate.TotalCounters();
  w.Key("counters");
  w.BeginObject();
  w.Field("bytes_total", totals.TotalBytes());
  w.Field("sort_tuples", totals.sort_tuples);
  w.Field("sync_acquisitions", totals.sync_acquisitions);
  w.Field("morsels_executed", totals.morsels_executed);
  w.Field("morsels_stolen", totals.morsels_stolen);
  w.Field("io_submits", totals.io_submits);
  w.Field("io_stall_ns", totals.io_stall_ns);
  w.EndObject();

  if (dmpsm.has_value()) {
    w.Key("dmpsm");
    w.BeginObject();
    w.Field("io_backend", io::IoBackendKindName(dmpsm->io_backend_used));
    w.Field("pages_read", dmpsm->io_sched.pages_read);
    w.Field("io_batches", dmpsm->io_sched.io_batches);
    w.Field("coalesced_pages", dmpsm->io_sched.coalesced_pages);
    w.Field("pages_written", dmpsm->io_sched.pages_written);
    w.Field("io_stall_ns", dmpsm->io_sched.io_stall_ns);
    w.Field("spool_write_stall_ns", dmpsm->spool_write_stall_ns);
    w.Field("peak_pool_pages", dmpsm->peak_pool_pages);
    w.Field("resumed", dmpsm->resumed);
    w.Field("runs_reattached", dmpsm->runs_reattached);
    w.Field("chunks_skipped", dmpsm->chunks_skipped);
    w.Field("journal_commits", dmpsm->journal_commits);
    w.Key("pool");
    w.BeginObject();
    w.Field("hits", dmpsm->pool.hits);
    w.Field("misses", dmpsm->pool.misses);
    w.Field("evictions", dmpsm->pool.evictions);
    w.Field("writebacks", dmpsm->pool.writebacks);
    w.Field("append_pages", dmpsm->pool.append_pages);
    w.Field("append_stall_ns", dmpsm->pool.append_stall_ns);
    w.Field("deferred_pins", dmpsm->pool.deferred_pins);
    w.EndObject();
    w.EndObject();
  }

  if (trace != nullptr) {
    const obs::TraceSummary summary = trace->Summary();
    w.Key("trace");
    w.BeginObject();
    w.Field("events", summary.events);
    w.Field("dropped_events", summary.dropped_events);
    w.Field("threads", summary.threads);
    w.Field("extent_ns",
            static_cast<uint64_t>(summary.end_ns - summary.begin_ns));
    w.Key("categories");
    w.BeginObject();
    for (const auto& category : summary.categories) {
      w.Key(category.category);
      w.BeginObject();
      w.Field("events", category.events);
      w.Field("span_ns", category.span_ns);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace mpsm::engine

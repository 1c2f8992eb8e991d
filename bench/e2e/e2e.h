// Shared pieces of the end-to-end benchmark driver (bench/e2e/README.md).
//
// A run executes one workload closed-loop for a fixed wall time, checks
// every answer against an oracle, and reports metrics by name. The
// driver only calls the library's public entry points (Engine::Execute,
// JoinService::Submit/Wait/Ingest) and reads the JoinReport and
// ServiceStats they return; every layer number is derived from those
// and from the engine's own trace. End-to-end times are scaled by a host
// probe run between rounds of operations (RunHostProbeMs).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "spans.h"

namespace mpsm::e2e {

/// One run's settings: mpsm_e2e's command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured wall time. A traced run splits it: the first half
  /// untraced (the reference for the tracing overhead), the second half
  /// with EngineOptions::trace on.
  double seconds = 20;
  bool trace = false;
  /// Inputs are 2^-scale_shift of the full size (the smoke run uses 6).
  uint32_t scale_shift = 0;
  /// Receives the merged Chrome trace and the per-run spool directory.
  std::string out_dir = ".";
};

/// Metric name and value, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

struct RunResult {
  /// Algorithm the planner chose for the workload's joins.
  std::string algorithm;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Joins behind the untraced latency percentiles.
  uint64_t join_samples = 0;
  /// The first few failures, for the log.
  std::vector<std::string> errors;
  Metrics metrics;

  void Fail(std::string what);
};

RunResult RunEngineWorkload(const RunConfig& config);
RunResult RunServiceWorkload(const RunConfig& config);

/// Set-ups per measurement; setup_s is the median of an untraced one's.
inline constexpr int kSetups = 5;
/// Length of one round of operations between two host probes.
inline constexpr double kRoundSeconds = 1.0;
/// The host probe's time on the reference host (bench/e2e/README.md). A
/// wall time measured while the probe took p ms is scaled by
/// kReferenceProbeMs / p.
inline constexpr double kReferenceProbeMs = 70.0;

/// A fixed piece of work that belongs to the benchmark, not the library:
/// each of 4 threads draws 2^19 pseudo-random keys (2^-scale_shift of
/// that in the smoke run) and sorts them. It runs while no join or
/// ingest is in flight, so its time tracks only the host's speed, which
/// on a shared VM drifts by ±20% over minutes.
double RunHostProbeMs(uint32_t scale_shift);

/// Returns the allocator's free memory to the kernel, then resets the
/// kernel's peak-RSS mark (VmHWM) to the current RSS. Without the trim,
/// the freed memory the allocator happened to keep from earlier slices
/// moved service-mixed's peak by up to 20% between runs.
void ResetPeakRss();
/// VmHWM in MB.
double PeakRssMb();

/// What one round of closed-loop operations measured, in wall-clock time.
struct Round {
  std::vector<double> join_ms;
  /// Completed operations: joins, plus ingests on the service.
  uint64_t ops = 0;
  double wall_s = 0;
};

/// The end-to-end numbers of one measurement. Every time is scaled to
/// the reference host by the probes on either side of it.
struct EndToEnd {
  std::vector<double> join_ms;
  uint64_t ops = 0;
  double wall_s = 0;
  std::vector<double> setup_s;
  /// Peak RSS from each set-up through the end of its slice; not scaled.
  std::vector<double> peak_rss_mb;
  /// Every probe's wall time, unscaled.
  std::vector<double> probe_ms;

  /// Appends `round`, measured between probes of `before` and `after` ms.
  void Add(const Round& round, double before, double after);
};

/// kReferenceProbeMs over the mean of two probes.
double ProbeScale(double before_ms, double after_ms);

/// Measures for `seconds` in kSetups equal slices: `set_up()` makes a
/// fresh system (after the previous one is destroyed), then
/// `measure(system, round_seconds)` runs rounds of about kRoundSeconds on
/// it, each returning a Round. A host probe runs before and after each
/// set-up and after each round. The set-ups are spread over the run so
/// that, like the joins, they sample the host across all of it. A
/// transient memory peak moves one slice's peak RSS, not the median of
/// all five.
template <typename SetUp, typename MeasureRound>
EndToEnd MeasureInSlices(const RunConfig& config, double seconds,
                         SetUp set_up, MeasureRound measure) {
  EndToEnd e2e;
  for (int i = 0; i < kSetups; ++i) {
    ResetPeakRss();
    double before = RunHostProbeMs(config.scale_shift);
    const int64_t start = NowNs();
    const auto system = set_up();
    const double setup_s = (NowNs() - start) / 1e9;
    double after = RunHostProbeMs(config.scale_shift);
    e2e.setup_s.push_back(setup_s * ProbeScale(before, after));
    e2e.probe_ms.push_back(before);
    const int64_t slice_end =
        NowNs() + static_cast<int64_t>(seconds / kSetups * 1e9);
    for (int64_t now = NowNs(); now < slice_end; now = NowNs()) {
      const Round round =
          measure(*system, std::min(kRoundSeconds, (slice_end - now) / 1e9));
      before = after;
      after = RunHostProbeMs(config.scale_shift);
      e2e.Add(round, before, after);
    }
    e2e.probe_ms.push_back(after);
    e2e.peak_rss_mb.push_back(PeakRssMb());
  }
  return e2e;
}

/// The run's spill directory, under config.out_dir like every file the
/// driver writes.
std::string SpoolDir(const RunConfig& config);

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// What one executed join reported, reduced to the numbers the
/// per-layer metrics need. `exec_ms` is the Execute time: client-timed
/// for direct engine calls, plan + run time inside the service.
struct JoinSample {
  double latency_ms = 0;
  double exec_ms = 0;
  double plan_ms = 0;
  std::array<double, kNumJoinPhases> phase_ms{};
  double plan_error = 0;
  double imbalance = 1;
  uint64_t morsels = 0;
  uint64_t morsels_stolen = 0;

  // D-MPSM spill path.
  double spool_stall_ms = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  double io_stall_ms = 0;
  uint64_t pages_read = 0;
  uint64_t io_batches = 0;
  double queue_depth = 0;
  uint64_t io_retries = 0;

  // Join service.
  double admission_ms = 0;
  double batch_wait_ms = 0;
  bool cache_merge = false;
  uint64_t delta_tuples = 0;

  TraceBreakdown trace;
};

JoinSample SampleOf(const engine::JoinReport& report, double latency_ms,
                    double exec_ms);

/// Appends the end-to-end metrics of an untraced measurement: join
/// latencies, operations per second, set-up time and peak RSS.
void AddEndToEndMetrics(const EndToEnd& e2e, Metrics& metrics);

/// Layer numbers only the join service produces; zero elsewhere.
struct ServiceLayer {
  double batched_frac = 0;
  double ingest_p50_ms = 0;
  double cache_hit_ratio = 0;
  double compactions_per_k_ingests = 0;
};

/// Appends the per-layer metrics every workload reports (zero where a
/// layer is not on the workload's path) from its traced joins. The two
/// end-to-end measurements of the run give the tracing overhead and the
/// host probe.
void AddLayerMetrics(const std::vector<JoinSample>& traced,
                     const EndToEnd& untraced_e2e, const EndToEnd& traced_e2e,
                     const ServiceLayer& service, Metrics& metrics);

}  // namespace mpsm::e2e

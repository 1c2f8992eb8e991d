// mpsm_e2e: runs one end-to-end benchmark workload and prints its
// result as one JSON line (bench/e2e/README.md; run.py drives it).
//
//   mpsm_e2e --workload inmem-uniform --seed 1 --seconds 20 --trace 0
//            [--scale-shift 6] [--out DIR]
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "e2e.h"
#include "util/json.h"
#include "util/rng.h"

namespace mpsm::e2e {

double RunHostProbeMs(uint32_t scale_shift) {
  constexpr uint32_t kThreads = 4;
  constexpr size_t kKeys = size_t{1} << 19;
  const size_t keys_per_thread = kKeys >> scale_shift;
  // Allocated and touched once (16 MiB that stay resident), so the probe
  // times no page faults.
  static std::array<std::vector<uint64_t>, kThreads> keys = [] {
    std::array<std::vector<uint64_t>, kThreads> buffers;
    for (std::vector<uint64_t>& buffer : buffers) buffer.resize(kKeys);
    return buffers;
  }();
  const int64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, keys_per_thread] {
        const auto begin = keys[t].begin();
        const auto end = begin + keys_per_thread;
        Xoshiro256 rng(t + 1);
        std::generate(begin, end, [&rng] { return rng.Next(); });
        std::sort(begin, end);
      });
    }
  }
  return (NowNs() - start) / 1e6;
}

double ProbeScale(double before_ms, double after_ms) {
  return kReferenceProbeMs / ((before_ms + after_ms) / 2);
}

void EndToEnd::Add(const Round& round, double before, double after) {
  const double scale = ProbeScale(before, after);
  for (const double ms : round.join_ms) join_ms.push_back(ms * scale);
  ops += round.ops;
  wall_s += round.wall_s * scale;
  probe_ms.push_back(before);
}

void RunResult::Fail(std::string what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(what));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

std::string SpoolDir(const RunConfig& config) {
  return config.out_dir + "/spool-" + config.workload + "-" +
         std::to_string(config.seed);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

JoinSample SampleOf(const engine::JoinReport& report, double latency_ms,
                    double exec_ms) {
  JoinSample sample;
  sample.latency_ms = latency_ms;
  sample.exec_ms = exec_ms;
  sample.plan_ms = report.plan_seconds * 1e3;
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    sample.phase_ms[p] = report.measured_phase_seconds[p] * 1e3;
  }
  if (report.measured_seconds > 0) {
    sample.plan_error =
        std::abs(report.plan.predicted_seconds - report.measured_seconds) /
        report.measured_seconds;
  }
  // Slowest worker over the mean worker, across phases.
  const auto& workers = report.info.workers;
  double mean_seconds = 0;
  for (const WorkerStats& worker : workers) {
    mean_seconds += worker.TotalSeconds() / workers.size();
  }
  if (mean_seconds > 0) {
    sample.imbalance = report.info.critical_path_seconds / mean_seconds;
  }
  const PerfCounters counters = report.info.aggregate.TotalCounters();
  sample.morsels = counters.morsels_executed;
  sample.morsels_stolen = counters.morsels_stolen;

  if (report.dmpsm.has_value()) {
    const disk::DMpsmReport& d = *report.dmpsm;
    sample.spool_stall_ms = d.spool_write_stall_ns / 1e6;
    sample.pool_hits = d.pool.hits;
    sample.pool_misses = d.pool.misses;
    sample.evictions = d.pool.evictions;
    sample.writebacks = d.pool.writebacks;
    sample.io_stall_ms = d.io_sched.io_stall_ns / 1e6;
    sample.pages_read = d.io_sched.pages_read;
    sample.io_batches = d.io_sched.io_batches;
    sample.queue_depth = d.io_sched.mean_queue_depth;
    sample.io_retries = d.io_sched.retries;
  }
  sample.admission_ms = report.admission_wait_ns / 1e6;
  sample.cache_merge = report.run_source == engine::RunSource::kCachedMerge;
  sample.delta_tuples = report.cache_delta_tuples;
  return sample;
}

void AddEndToEndMetrics(const EndToEnd& e2e, Metrics& metrics) {
  metrics.emplace_back("join_p50_ms", Quantile(e2e.join_ms, 0.5));
  metrics.emplace_back("join_p90_ms", Quantile(e2e.join_ms, 0.9));
  metrics.emplace_back("ops_per_s",
                       e2e.wall_s > 0 ? e2e.ops / e2e.wall_s : 0.0);
  metrics.emplace_back("setup_s", Median(e2e.setup_s));
  metrics.emplace_back("peak_rss_mb", Median(e2e.peak_rss_mb));
}

void AddLayerMetrics(const std::vector<JoinSample>& traced,
                     const EndToEnd& untraced_e2e, const EndToEnd& traced_e2e,
                     const ServiceLayer& service, Metrics& metrics) {
  const auto median = [&](auto field) {
    std::vector<double> values;
    for (const JoinSample& s : traced) values.push_back(field(s));
    return Median(std::move(values));
  };
  const auto ratio = [&](auto part, auto whole) {
    double p = 0;
    double w = 0;
    for (const JoinSample& s : traced) {
      p += part(s);
      w += whole(s);
    }
    return w > 0 ? p / w : 0.0;
  };
  const auto add = [&](const char* name, double value) {
    metrics.emplace_back(name, value);
  };
  using S = const JoinSample&;

  add("service.admission_wait_ms", median([](S s) { return s.admission_ms; }));
  add("service.batch_wait_ms", median([](S s) { return s.batch_wait_ms; }));
  add("service.batched_frac", service.batched_frac);
  add("service.ingest_p50_ms", service.ingest_p50_ms);
  add("engine.plan_ms", median([](S s) { return s.plan_ms; }));
  add("engine.overhead_ms", median([](S s) {
        double phases = 0;
        for (const double ms : s.phase_ms) phases += ms;
        return s.exec_ms - s.plan_ms - phases;
      }));
  add("engine.plan_error", median([](S s) { return s.plan_error; }));
  add("sort.phase1_ms", median([](S s) { return s.phase_ms[0]; }));
  add("partition.phase2_ms", median([](S s) { return s.phase_ms[1]; }));
  add("sort.phase3_ms", median([](S s) { return s.phase_ms[2]; }));
  add("core.phase4_ms", median([](S s) { return s.phase_ms[3]; }));
  add("parallel.phase_imbalance", median([](S s) { return s.imbalance; }));
  add("parallel.morsels_stolen_frac",
      ratio([](S s) { return double(s.morsels_stolen); },
            [](S s) { return double(s.morsels); }));
  add("disk.spool_stall_ms", median([](S s) { return s.spool_stall_ms; }));
  add("bufferpool.hit_ratio",
      ratio([](S s) { return double(s.pool_hits); },
            [](S s) { return double(s.pool_hits + s.pool_misses); }));
  add("bufferpool.evictions", median([](S s) { return double(s.evictions); }));
  add("bufferpool.writebacks",
      median([](S s) { return double(s.writebacks); }));
  add("io.stall_ms", median([](S s) { return s.io_stall_ms; }));
  add("io.pages_per_batch",
      ratio([](S s) { return double(s.pages_read); },
            [](S s) { return double(s.io_batches); }));
  add("io.mean_queue_depth", median([](S s) { return s.queue_depth; }));
  add("io.retries", ratio([](S s) { return double(s.io_retries); },
                          [](S) { return 1.0; }));
  add("cache.hit_ratio", service.cache_hit_ratio);
  add("cache.merge_frac", ratio([](S s) { return double(s.cache_merge); },
                                [](S) { return 1.0; }));
  add("cache.delta_tuples", median([](S s) { return double(s.delta_tuples); }));
  add("cache.compactions_per_k_ingests", service.compactions_per_k_ingests);
  // Both medians are scaled by the host probe, so host drift between the
  // two halves of the run cancels.
  const double untraced_p50_ms = Median(untraced_e2e.join_ms);
  add("obs.trace_overhead_frac",
      untraced_p50_ms > 0 ? Median(traced_e2e.join_ms) / untraced_p50_ms
                          : 0.0);
  add("obs.trace_coverage", median([](S s) { return s.trace.coverage; }));
  for (size_t c = 0; c < kTraceCategories.size(); ++c) {
    metrics.emplace_back(
        std::string("trace.") + kTraceCategories[c] + "_self_ms",
        median([c](S s) { return s.trace.self_ms[c]; }));
  }
  std::vector<double> probe_ms = untraced_e2e.probe_ms;
  probe_ms.insert(probe_ms.end(), traced_e2e.probe_ms.begin(),
                  traced_e2e.probe_ms.end());
  add("host.probe_ms", Median(std::move(probe_ms)));
}

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "mpsm_e2e: %s\nusage: mpsm_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale-shift K] [--out DIR]\n",
               message);
  return 2;
}

std::string ResultJson(const RunConfig& config, const RunResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Field("workload", config.workload);
  json.Field("seed", config.seed);
  json.Field("algorithm", result.algorithm);
  json.Field("attempted", result.attempted);
  json.Field("failed", result.failed);
  json.Field("join_samples", result.join_samples);
  json.Key("errors");
  json.BeginArray();
  for (const std::string& error : result.errors) json.Value(error);
  json.EndArray();
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, value] : result.metrics) {
    json.Field(name.c_str(), value);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace

}  // namespace mpsm::e2e

int main(int argc, char** argv) {
  using namespace mpsm::e2e;
  // Fix glibc's mmap threshold at its default, 128 KiB. Left dynamic, it
  // rises after the first large free, and later join buffers then stay in
  // per-thread arenas, resident or not depending on which thread freed
  // them: spill-dmpsm's peak RSS read 315-369 MB over 10 seeds that way,
  // against 175-180 MB of live memory with the threshold fixed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale-shift") {
      config.scale_shift = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(config.seconds > 0) || config.scale_shift > 10) {
    return Usage("--seconds must be positive, --scale-shift at most 10");
  }

  RunResult result;
  if (config.workload == "inmem-uniform" || config.workload == "inmem-skew" ||
      config.workload == "spill-dmpsm") {
    result = RunEngineWorkload(config);
  } else if (config.workload == "service-mixed") {
    result = RunServiceWorkload(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  std::printf("%s\n", ResultJson(config, result).c_str());
  return 0;
}

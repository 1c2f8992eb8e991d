// Single-client workloads on one engine session: inmem-uniform,
// inmem-skew and spill-dmpsm (bench/e2e/README.md says why each exists).
#include <filesystem>
#include <memory>
#include <string>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "e2e.h"
#include "workload/generator.h"

namespace mpsm::e2e {

namespace {

constexpr uint32_t kWorkers = 4;

struct Workload {
  workload::DatasetSpec data;
  /// JoinSpec::memory_budget_bytes; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
};

Workload Describe(const RunConfig& config) {
  Workload w;
  w.data.multiplicity = 4;
  w.data.seed = config.seed;
  w.data.r_tuples = (size_t{1} << 21) >> config.scale_shift;
  if (config.workload == "inmem-skew") {
    // Figure 16: negatively correlated 80:20 skew, S keys independent of
    // R, a domain of 2.5 keys per R tuple.
    w.data.key_domain = w.data.r_tuples * 5 / 2;
    w.data.r_distribution = workload::KeyDistribution::kSkewHighEnd;
    w.data.s_distribution = workload::KeyDistribution::kSkewLowEnd;
    w.data.s_mode = workload::SKeyMode::kIndependent;
  } else if (config.workload == "spill-dmpsm") {
    // 80 MB of input against a 16 MiB budget: the planner spills through
    // D-MPSM with an 8 MiB buffer pool.
    w.data.r_tuples /= 2;
    w.memory_budget_bytes = (uint64_t{16} << 20) >> config.scale_shift;
  }
  return w;
}

/// The answer every join must return.
struct Expected {
  uint64_t count = 0;
  uint64_t max_payload_sum = 0;
};

class Runner {
 public:
  Runner(const Workload& workload, const workload::Dataset& data,
         Expected expected, std::string spool_dir)
      : workload_(workload),
        data_(data),
        expected_(expected),
        spool_dir_(std::move(spool_dir)) {}

  /// Constructs a session and runs the warm-up query.
  std::unique_ptr<engine::Engine> SetUp(bool traced) {
    engine::EngineOptions options;
    options.workers = kWorkers;
    options.trace = traced;
    options.dmpsm.directory = spool_dir_;
    auto engine = std::make_unique<engine::Engine>(options);
    Join(*engine, nullptr, nullptr, nullptr);
    return engine;
  }

  /// Runs joins on `engine` for `seconds`. A traced run (`chrome` set)
  /// also appends each join's sample to `samples`.
  Round Measure(engine::Engine& engine, double seconds, ChromeTrace* chrome,
                std::vector<JoinSample>* samples) {
    Round round;
    const int64_t begin = NowNs();
    const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
    int64_t end = begin;
    while (end < deadline) {
      end = Join(engine, &round, chrome, samples);
    }
    round.ops = round.join_ms.size();
    round.wall_s = (end - begin) / 1e9;
    return round;
  }

  RunResult& result() { return result_; }

 private:
  /// Runs and checks one query, recording it in `round` unless that is
  /// null; returns when it finished.
  int64_t Join(engine::Engine& engine, Round* round, ChromeTrace* chrome,
               std::vector<JoinSample>* samples) {
    MaxPayloadSumFactory aggregate(kWorkers);
    engine::JoinSpec spec;
    spec.r = &data_.r;
    spec.s = &data_.s;
    spec.consumers = &aggregate;
    spec.memory_budget_bytes = workload_.memory_budget_bytes;

    ClientSpan span{"execute", NowNs()};
    auto report = engine.Execute(spec);
    span.end_ns = NowNs();

    ++result_.attempted;
    if (!report.ok()) {
      result_.Fail("execute: " + report.status().ToString());
      return span.end_ns;
    }
    const uint64_t got = aggregate.Result().value_or(0);
    if (report->info.output_tuples != expected_.count ||
        got != expected_.max_payload_sum) {
      result_.Fail("wrong answer: count " +
                   std::to_string(report->info.output_tuples) + " max " +
                   std::to_string(got) + ", expected " +
                   std::to_string(expected_.count) + " / " +
                   std::to_string(expected_.max_payload_sum));
    }
    result_.algorithm = engine::AlgorithmName(report->plan.algorithm);
    if (round == nullptr) return span.end_ns;
    const double latency_ms = (span.end_ns - span.start_ns) / 1e6;
    round->join_ms.push_back(latency_ms);
    if (report->trace != nullptr) {
      JoinSample sample = SampleOf(*report, latency_ms, latency_ms);
      span.query_id = report->query_id;
      sample.trace = Analyze(span, *report->trace);
      chrome->AddClient(span);
      chrome->AddQuery(*report->trace);
      samples->push_back(sample);
    }
    return span.end_ns;
  }

  const Workload& workload_;
  const workload::Dataset& data_;
  const Expected expected_;
  const std::string spool_dir_;
  RunResult result_;
};

}  // namespace

RunResult RunEngineWorkload(const RunConfig& config) {
  const Workload workload = Describe(config);
  const workload::Dataset data = workload::Generate(
      numa::Topology::Probe(), kWorkers, workload.data);

  Expected expected;
  {
    MaxPayloadSumFactory reference(1);
    expected.count = baseline::ReferenceJoin(
        data.r.ToVector(), data.s.ToVector(), JoinKind::kInner,
        reference.ConsumerForWorker(0));
    expected.max_payload_sum = reference.Result().value_or(0);
  }
  const std::string spool_dir = SpoolDir(config);
  std::filesystem::create_directories(spool_dir);
  Runner runner(workload, data, expected, spool_dir);

  const EndToEnd untraced = MeasureInSlices(
      config, config.trace ? config.seconds / 2 : config.seconds,
      [&] { return runner.SetUp(/*traced=*/false); },
      [&](engine::Engine& engine, double seconds) {
        return runner.Measure(engine, seconds, nullptr, nullptr);
      });
  RunResult& result = runner.result();
  result.join_samples = untraced.join_ms.size();
  AddEndToEndMetrics(untraced, result.metrics);

  if (config.trace) {
    ChromeTrace chrome;
    std::vector<JoinSample> samples;
    const EndToEnd traced = MeasureInSlices(
        config, config.seconds / 2,
        [&] { return runner.SetUp(/*traced=*/true); },
        [&](engine::Engine& engine, double seconds) {
          return runner.Measure(engine, seconds, &chrome, &samples);
        });
    AddLayerMetrics(samples, untraced, traced, ServiceLayer{},
                    result.metrics);
    chrome.Write(config.out_dir + "/" + config.workload + ".trace.json");
  }
  std::filesystem::remove_all(spool_dir);
  return result;
}

}  // namespace mpsm::e2e

// service-mixed: four closed-loop clients on one JoinService. Each
// operation is, by the client's seeded coin, a join of the client's
// private R against the shared S (90%) or an Ingest of new tuples into
// S (10%).
//
// Ingest only appends, so a join's answer is bounded by the reference
// over S plus the ingests that had returned before its Submit (lo) and
// plus every ingest that had started before its Wait returned (hi).
// After Drain, one more join per client must match the reference
// exactly.
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/consumers.h"
#include "e2e.h"
#include "service/join_service.h"
#include "util/rng.h"

namespace mpsm::e2e {

namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kLanes = 2;
constexpr uint32_t kLaneWorkers = 2;
constexpr double kIngestShare = 0.1;

struct Sizes {
  size_t s_tuples;
  size_t r_tuples;
  size_t ingest_tuples;
  uint64_t key_domain;
};

Sizes SizesFor(const RunConfig& config) {
  const uint32_t shift = config.scale_shift;
  return {(size_t{1} << 21) >> shift, (size_t{1} << 14) >> shift,
          size_t{2048} >> shift, (uint64_t{1} << 24) >> shift};
}

Tuple DrawTuple(Xoshiro256& rng, uint64_t key_domain) {
  // Payloads below 2^32 keep payload sums inside 64 bits.
  const uint64_t key = rng.NextBounded(key_domain);
  return Tuple{key, rng.Next() & 0xFFFFFFFFull};
}

Relation MakeRelation(const numa::Topology& topology, size_t tuples,
                      uint64_t key_domain, uint64_t seed) {
  Relation rel = Relation::Allocate(topology, tuples, kLaneWorkers);
  Xoshiro256 rng(seed);
  for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
    for (Tuple& t : rel.chunk(c)) t = DrawTuple(rng, key_domain);
  }
  return rel;
}

/// Output count and max(R.payload + S.payload) of a join.
struct Tally {
  uint64_t count = 0;
  uint64_t max = 0;

  void Add(const Tally& other) {
    count += other.count;
    max = std::max(max, other.max);
  }
};

/// Hash-join oracle for one client's private R.
class PrivateOracle {
 public:
  explicit PrivateOracle(const Relation& r) {
    for (const Tuple& t : r.ToVector()) {
      Entry& e = keys_[t.key];
      ++e.count;
      e.max_payload = std::max(e.max_payload, t.payload);
    }
  }

  Tally Join(const Tuple* s, size_t n) const {
    Tally tally;
    for (size_t i = 0; i < n; ++i) {
      const auto it = keys_.find(s[i].key);
      if (it == keys_.end()) continue;
      tally.count += it->second.count;
      tally.max = std::max(tally.max, it->second.max_payload + s[i].payload);
    }
    return tally;
  }

 private:
  struct Entry {
    uint64_t count = 0;
    uint64_t max_payload = 0;
  };
  std::unordered_map<uint64_t, Entry> keys_;
};

/// What each client's join may see of S: `lo` counts the ingests that
/// have returned, `hi` every ingest that has started.
struct Ledger {
  std::mutex mu;
  std::array<Tally, kClients> lo;
  std::array<Tally, kClients> hi;
};

/// One client's share of a measurement.
struct ClientLog {
  std::vector<double> join_ms;
  std::vector<double> ingest_ms;
  std::vector<JoinSample> samples;
  int64_t last_end_ns = 0;
  RunResult result;
};

class Runner {
 public:
  Runner(const RunConfig& config, Relation& s,
         const std::vector<Relation>& r,
         const std::vector<PrivateOracle>& oracles,
         const std::array<Tally, kClients>& base, std::string spool_dir)
      : config_(config),
        sizes_(SizesFor(config)),
        s_(s),
        r_(r),
        oracles_(oracles),
        base_(base),
        spool_dir_(std::move(spool_dir)) {}

  /// Constructs a service and runs the warm-up join, which installs S's
  /// sorted runs in the run cache.
  std::unique_ptr<service::JoinService> SetUp(bool traced) {
    service::ServiceOptions options;
    options.lanes = kLanes;
    options.engine.workers = kLaneWorkers;
    options.engine.trace = traced;
    options.engine.dmpsm.directory = spool_dir_;
    options.run_cache_bytes = uint64_t{1} << 30;
    auto svc = std::make_unique<service::JoinService>(options);
    // A fresh service holds no ingested tuples.
    ledger_.lo = base_;
    ledger_.hi = base_;
    ClientLog warmup;
    Join(*svc, 0, warmup, nullptr, false);
    Merge(warmup.result);
    return svc;
  }

  /// What a traced measurement records for the per-layer metrics, over
  /// one or more services.
  struct Layers {
    std::vector<double> ingest_ms;
    std::vector<JoinSample> samples;
    // ServiceStats counts accrued while measuring.
    uint64_t completed = 0;
    uint64_t batched = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_lookups = 0;
    uint64_t compactions = 0;
  };

  /// Runs the clients on `svc` for `seconds`, then checks every client's
  /// join exactly once the service is drained. A traced run (`chrome`
  /// set) also appends to `layers`.
  Round Measure(service::JoinService& svc, double seconds,
                ChromeTrace* chrome, Layers* layers) {
    const service::ServiceStats before = svc.stats();
    const int64_t begin = NowNs();
    const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
    std::array<ClientLog, kClients> logs;
    {
      std::vector<std::jthread> clients;
      for (uint32_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Xoshiro256 rng(config_.seed * 0x9E3779B97F4A7C15ull + c + 1);
          ClientLog& log = logs[c];
          do {
            if (rng.NextDouble() < kIngestShare) {
              Ingest(svc, rng, log);
            } else {
              Join(svc, c, log, chrome, true);
            }
          } while (log.last_end_ns < deadline);
        });
      }
    }
    Round round;
    int64_t end = begin;
    for (ClientLog& log : logs) {
      end = std::max(end, log.last_end_ns);
      round.join_ms.insert(round.join_ms.end(), log.join_ms.begin(),
                           log.join_ms.end());
      round.ops += log.join_ms.size() + log.ingest_ms.size();
      Merge(log.result);
    }
    round.wall_s = (end - begin) / 1e9;
    if (layers != nullptr) {
      for (ClientLog& log : logs) {
        layers->ingest_ms.insert(layers->ingest_ms.end(),
                                 log.ingest_ms.begin(), log.ingest_ms.end());
        layers->samples.insert(layers->samples.end(), log.samples.begin(),
                               log.samples.end());
      }
      const service::ServiceStats after = svc.stats();
      layers->completed += after.completed - before.completed;
      layers->batched += after.batched_queries - before.batched_queries;
      layers->cache_hits += after.cache_hits - before.cache_hits;
      layers->cache_lookups += (after.cache_hits - before.cache_hits) +
                               (after.cache_misses - before.cache_misses);
      layers->compactions +=
          after.cache_compactions - before.cache_compactions;
    }

    // Every ingest has returned: each client's join must now match.
    svc.Drain();
    for (uint32_t c = 0; c < kClients; ++c) {
      ClientLog final_join;
      Join(svc, c, final_join, nullptr, false);
      Merge(final_join.result);
    }
    return round;
  }

  RunResult& result() { return result_; }

 private:
  void Merge(const RunResult& part) {
    result_.attempted += part.attempted;
    result_.failed += part.failed;
    for (const std::string& error : part.errors) {
      if (result_.errors.size() < 5) result_.errors.push_back(error);
    }
    if (!part.algorithm.empty()) result_.algorithm = part.algorithm;
  }

  void Join(service::JoinService& svc, uint32_t client, ClientLog& log,
            ChromeTrace* chrome, bool record) {
    Tally lo;
    {
      std::lock_guard<std::mutex> lock(ledger_.mu);
      lo = ledger_.lo[client];
    }
    MaxPayloadSumFactory aggregate(kLaneWorkers);
    engine::JoinSpec spec;
    spec.r = &r_[client];
    spec.s = &s_;
    spec.consumers = &aggregate;

    ClientSpan join{"join", NowNs(), 0, client};
    auto id = svc.Submit(spec);
    const int64_t submitted = NowNs();
    Result<engine::JoinReport> report =
        id.ok() ? svc.Wait(*id) : Result<engine::JoinReport>(id.status());
    join.end_ns = NowNs();
    log.last_end_ns = join.end_ns;
    Tally hi;
    {
      std::lock_guard<std::mutex> lock(ledger_.mu);
      hi = ledger_.hi[client];
    }

    ++log.result.attempted;
    if (!report.ok()) {
      log.result.Fail("join: " + report.status().ToString());
      return;
    }
    const Tally got{report->info.output_tuples,
                    aggregate.Result().value_or(0)};
    if (got.count < lo.count || got.count > hi.count || got.max < lo.max ||
        got.max > hi.max) {
      log.result.Fail("client " + std::to_string(client) + " wrong answer: " +
                      "count " + std::to_string(got.count) + " not in [" +
                      std::to_string(lo.count) + ", " +
                      std::to_string(hi.count) + "] or max " +
                      std::to_string(got.max) + " not in [" +
                      std::to_string(lo.max) + ", " + std::to_string(hi.max) +
                      "]");
    }
    log.result.algorithm = engine::AlgorithmName(report->plan.algorithm);
    if (!record) return;

    const double latency_ms = (join.end_ns - join.start_ns) / 1e6;
    const double exec_ms =
        (report->plan_seconds + report->info.wall_seconds) * 1e3;
    log.join_ms.push_back(latency_ms);
    JoinSample sample = SampleOf(*report, latency_ms, exec_ms);
    sample.batch_wait_ms = latency_ms - sample.admission_ms - exec_ms;
    if (report->trace != nullptr) {
      join.query_id = report->query_id;
      sample.trace = Analyze(join, *report->trace);
      const int64_t parent = chrome->AddClient(join);
      chrome->AddClient({"submit", join.start_ns, submitted, client,
                         join.query_id},
                        parent);
      chrome->AddClient({"wait", submitted, join.end_ns, client,
                         join.query_id},
                        parent);
      chrome->AddQuery(*report->trace);
    }
    log.samples.push_back(sample);
  }

  void Ingest(service::JoinService& svc, Xoshiro256& rng, ClientLog& log) {
    std::vector<Tuple> batch(sizes_.ingest_tuples);
    for (Tuple& t : batch) t = DrawTuple(rng, sizes_.key_domain);
    std::array<Tally, kClients> adds;
    for (uint32_t c = 0; c < kClients; ++c) {
      adds[c] = oracles_[c].Join(batch.data(), batch.size());
    }
    {
      std::lock_guard<std::mutex> lock(ledger_.mu);
      for (uint32_t c = 0; c < kClients; ++c) ledger_.hi[c].Add(adds[c]);
    }
    const int64_t start = NowNs();
    auto version = svc.Ingest(s_, batch);
    log.last_end_ns = NowNs();
    ++log.result.attempted;
    if (!version.ok()) {
      log.result.Fail("ingest: " + version.status().ToString());
      return;
    }
    log.ingest_ms.push_back((log.last_end_ns - start) / 1e6);
    std::lock_guard<std::mutex> lock(ledger_.mu);
    for (uint32_t c = 0; c < kClients; ++c) ledger_.lo[c].Add(adds[c]);
  }

  const RunConfig& config_;
  const Sizes sizes_;
  Relation& s_;
  const std::vector<Relation>& r_;
  const std::vector<PrivateOracle>& oracles_;
  const std::array<Tally, kClients>& base_;
  const std::string spool_dir_;
  Ledger ledger_;
  RunResult result_;
};

}  // namespace

RunResult RunServiceWorkload(const RunConfig& config) {
  const Sizes sizes = SizesFor(config);
  const numa::Topology topology = numa::Topology::Probe();
  Relation s = MakeRelation(topology, sizes.s_tuples, sizes.key_domain,
                            config.seed * 0x2545F4914F6CDD1Dull);
  std::vector<Relation> r;
  std::vector<PrivateOracle> oracles;
  std::array<Tally, kClients> base;
  {
    const std::vector<Tuple> s_tuples = s.ToVector();
    for (uint32_t c = 0; c < kClients; ++c) {
      r.push_back(MakeRelation(topology, sizes.r_tuples, sizes.key_domain,
                               config.seed * 0x9E3779B97F4A7C15ull + 100 + c));
      oracles.emplace_back(r.back());
      base[c] = oracles.back().Join(s_tuples.data(), s_tuples.size());
    }
  }
  const std::string spool_dir = SpoolDir(config);
  std::filesystem::create_directories(spool_dir);
  Runner runner(config, s, r, oracles, base, spool_dir);

  const EndToEnd untraced = MeasureInSlices(
      config, config.trace ? config.seconds / 2 : config.seconds,
      [&] { return runner.SetUp(/*traced=*/false); },
      [&](service::JoinService& svc, double seconds) {
        return runner.Measure(svc, seconds, nullptr, nullptr);
      });
  RunResult& result = runner.result();
  result.join_samples = untraced.join_ms.size();
  AddEndToEndMetrics(untraced, result.metrics);

  if (config.trace) {
    ChromeTrace chrome;
    Runner::Layers traced;
    const EndToEnd traced_e2e = MeasureInSlices(
        config, config.seconds / 2,
        [&] { return runner.SetUp(/*traced=*/true); },
        [&](service::JoinService& svc, double seconds) {
          return runner.Measure(svc, seconds, &chrome, &traced);
        });
    ServiceLayer layer;
    layer.batched_frac =
        traced.completed > 0 ? double(traced.batched) / traced.completed
                             : 0.0;
    layer.ingest_p50_ms = Median(traced.ingest_ms);
    layer.cache_hit_ratio =
        traced.cache_lookups > 0
            ? double(traced.cache_hits) / traced.cache_lookups
            : 0.0;
    layer.compactions_per_k_ingests =
        traced.ingest_ms.empty()
            ? 0.0
            : 1000.0 * traced.compactions / traced.ingest_ms.size();
    AddLayerMetrics(traced.samples, untraced, traced_e2e, layer,
                    result.metrics);
    chrome.Write(config.out_dir + "/" + config.workload + ".trace.json");
  }
  std::filesystem::remove_all(spool_dir);
  return result;
}

}  // namespace mpsm::e2e

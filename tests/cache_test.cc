// Cross-query run cache (cache/run_cache.h + engine/service wiring):
// cold-install / warm-hit identity against the reference join, delta
// ingest with merge-on-read, stale-plan failover after an external
// version bump, LRU eviction under a byte budget (delta logs survive),
// tiered compaction (inline and on a worker team), the materialized
// logical view, and a concurrent service sweep with a live ingester.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "baseline/reference_join.h"
#include "cache/run_cache.h"
#include "core/consumers.h"
#include "core/public_runs.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "service/join_service.h"
#include "storage/relation.h"
#include "workload/generator.h"

namespace mpsm::cache {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(2, 4); }

constexpr uint32_t kChunks = 4;

workload::Dataset MakeDataset(const numa::Topology& topology, size_t r_tuples,
                              uint64_t seed, double multiplicity = 1.5) {
  workload::DatasetSpec spec;
  spec.r_tuples = r_tuples;
  spec.multiplicity = multiplicity;
  spec.key_domain = 4 * r_tuples;  // duplicates and unmatched keys exist
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = seed;
  return workload::Generate(topology, kChunks, spec);
}

uint64_t Reference(std::vector<Tuple> r, std::vector<Tuple> s, JoinKind kind) {
  CountFactory reference(1);
  return baseline::ReferenceJoin(std::move(r), std::move(s), kind,
                                 reference.ConsumerForWorker(0));
}

std::vector<Tuple> RandomBatch(std::mt19937_64& rng, size_t n,
                               uint64_t key_domain) {
  std::vector<Tuple> batch(n);
  for (size_t i = 0; i < n; ++i) {
    batch[i] = Tuple{rng() % key_domain, rng()};
  }
  return batch;
}

engine::JoinSpec PMpsmSpec(const workload::Dataset& dataset,
                           ConsumerFactory* consumers,
                           JoinKind kind = JoinKind::kInner) {
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = kind;
  spec.consumers = consumers;
  // Datasets small enough for a fast suite would otherwise plan the
  // tiny-input hash baseline and never touch the run-cache path.
  spec.algorithm = engine::Algorithm::kPMpsm;
  return spec;
}

engine::Engine MakeEngine(const numa::Topology& topology) {
  engine::EngineOptions options;
  options.workers = kChunks;
  return engine::Engine(topology, options);
}

// ------------------------------------------------- cold miss, warm hit

TEST(RunCacheEngineTest, ColdMissInstallsThenWarmHitMatchesReference) {
  const auto topology = Topo();
  const auto dataset = MakeDataset(topology, 20000, 71);
  const uint64_t expected =
      Reference(dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner);

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kFreshSort);
  EXPECT_EQ(cold.Result(), expected);
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  EXPECT_EQ(engine.stats().cache_installs, 1u);

  // EXPLAIN now sees the warm entry and prices the merge.
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->cached_runs.available);
  EXPECT_TRUE(plan->cached_runs.use);
  EXPECT_EQ(plan->cached_runs.delta_tuples, 0u);
  EXPECT_NE(plan->ToString().find("cache:"), std::string::npos);

  CountFactory warm(kChunks);
  spec.consumers = &warm;
  report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedBase);
  EXPECT_EQ(report->cache_delta_tuples, 0u);
  EXPECT_EQ(warm.Result(), expected);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().installs, 1u);
  EXPECT_GT(cache.stats().base_bytes, 0u);
}

TEST(RunCacheEngineTest, IngestMergesOnRead) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 16000, 72);
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  std::mt19937_64 rng(1234);
  const uint64_t domain = 4 * 16000;
  for (const size_t batch_size : {size_t{1000}, size_t{500}}) {
    const auto batch = RandomBatch(rng, batch_size, domain);
    auto version = engine.Ingest(dataset.s, batch);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    EXPECT_EQ(*version, dataset.s.version());
    s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());
  }

  CountFactory warm(kChunks);
  spec.consumers = &warm;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedMerge);
  EXPECT_EQ(report->cache_delta_tuples, 1500u);
  EXPECT_EQ(warm.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
  EXPECT_EQ(cache.stats().ingested_tuples, 1500u);
  EXPECT_GT(cache.stats().delta_bytes, 0u);
}

TEST(RunCacheEngineTest, IngestRequiresCacheAndIdentity) {
  auto engine = MakeEngine(Topo());
  auto dataset = MakeDataset(engine.topology(), 1000, 5);
  const std::vector<Tuple> batch{Tuple{1, 2}};
  EXPECT_FALSE(engine.Ingest(dataset.s, batch).ok());  // no cache attached

  RunCache cache;
  engine.set_run_cache(&cache);
  Relation anonymous;  // id 0: content can never be cache-keyed
  EXPECT_FALSE(engine.Ingest(anonymous, batch).ok());
  EXPECT_TRUE(engine.Ingest(dataset.s, batch).ok());
}

// ------------------------------------------- randomized interleaving

TEST(RunCacheEngineTest, RandomizedInterleavedIngestExecuteMatchesReference) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 8000, 73, 2.0);
  std::vector<Tuple> r_mirror = dataset.r.ToVector();
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  std::mt19937_64 rng(4321);
  const uint64_t domain = 4 * 8000;
  const JoinKind kinds[] = {JoinKind::kInner, JoinKind::kLeftSemi,
                            JoinKind::kLeftOuter};
  for (int round = 0; round < 10; ++round) {
    const size_t batch_size = rng() % 800;
    const auto batch = RandomBatch(rng, batch_size, domain);
    ASSERT_TRUE(engine.Ingest(dataset.s, batch).ok());
    s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());
    if (round % 3 == 2) {
      // R deltas exercise the materialized-view path: R is not served
      // from cached runs, so its pending rows must be folded into the
      // input relation before the join.
      const auto r_batch = RandomBatch(rng, 200, domain);
      ASSERT_TRUE(engine.Ingest(dataset.r, r_batch).ok());
      r_mirror.insert(r_mirror.end(), r_batch.begin(), r_batch.end());
    }

    const JoinKind kind = kinds[round % 3];
    CountFactory consumers(kChunks);
    auto spec = PMpsmSpec(dataset, &consumers, kind);
    auto report = engine.Execute(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(consumers.Result(), Reference(r_mirror, s_mirror, kind))
        << "round " << round << " " << JoinKindName(kind);
    if (round > 0 && batch_size > 0) {  // round 0 is the cold install
      EXPECT_EQ(report->run_source, engine::RunSource::kCachedMerge)
          << "round " << round;
    }
  }
  EXPECT_GT(engine.stats().cache_hits, 0u);
  EXPECT_GT(engine.stats().cache_materializations, 0u);
}

// -------------------------------------------------- stale-plan hazard

TEST(RunCacheEngineTest, ExternalBumpFailsOverToFreshSort) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 12000, 74);
  const uint64_t expected =
      Reference(dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner);

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  // An in-place mutation the cache never saw: the delta log has a gap,
  // so the entry can no longer compose a coherent view. The cached
  // report must never appear; the query re-sorts and reinstalls.
  dataset.s.BumpVersion();
  auto view = cache.Lookup(dataset.s, kChunks);
  EXPECT_FALSE(view.valid());
  EXPECT_EQ(cache.stats().stale_invalidations, 1u);

  CountFactory after(kChunks);
  spec.consumers = &after;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kFreshSort);
  EXPECT_EQ(after.Result(), expected);

  // The reinstall covers the bumped version: warm again.
  CountFactory warm(kChunks);
  spec.consumers = &warm;
  report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedBase);
  EXPECT_EQ(warm.Result(), expected);
}

TEST(RunCacheEngineTest, IngestBetweenPlanAndExecuteStaysCorrect) {
  // The plan's cached decision is advisory: Execute re-validates. A
  // delta ingested after EXPLAIN said "warm, zero deltas" must still be
  // joined (merge-on-read picks it up), never silently dropped.
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 12000, 75);
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->cached_runs.use);
  ASSERT_EQ(plan->cached_runs.delta_tuples, 0u);

  std::mt19937_64 rng(99);
  const auto batch = RandomBatch(rng, 700, 4 * 12000);
  ASSERT_TRUE(engine.Ingest(dataset.s, batch).ok());
  s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());

  CountFactory consumers(kChunks);
  spec.consumers = &consumers;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedMerge);
  EXPECT_EQ(report->cache_delta_tuples, 700u);
  EXPECT_EQ(consumers.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
}

// ------------------------------------------------------------ eviction

TEST(RunCacheEngineTest, LruEvictionUnderCapacityStaysCorrect) {
  const auto topology = Topo();
  const auto a = MakeDataset(topology, 16000, 76);
  const auto b = MakeDataset(topology, 16000, 77);

  // Room for one public input's runs (|S| ~ 24k tuples ~ 384 KiB), not
  // two: every switch of the joined table evicts the other entry.
  RunCacheOptions options;
  options.capacity_bytes = 600u << 10;
  RunCache cache(options);
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  const auto run = [&](const workload::Dataset& dataset) {
    CountFactory consumers(kChunks);
    auto spec = PMpsmSpec(dataset, &consumers);
    auto report = engine.Execute(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(consumers.Result(), Reference(dataset.r.ToVector(),
                                            dataset.s.ToVector(),
                                            JoinKind::kInner));
  };
  run(a);  // install A
  run(b);  // install B, evict A
  EXPECT_GE(cache.stats().evictions, 1u);
  run(a);  // miss again: fresh sort, correct, reinstall
  EXPECT_GE(engine.stats().cache_misses, 3u);
  EXPECT_LE(cache.resident_bytes(), options.capacity_bytes);
}

TEST(RunCacheEngineTest, DeltaLogSurvivesEviction) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 10000, 78);
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  std::mt19937_64 rng(11);
  const auto batch = RandomBatch(rng, 900, 4 * 10000);
  ASSERT_TRUE(engine.Ingest(dataset.s, batch).ok());
  s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());

  // Evict everything evictable. Delta tuples exist nowhere else — they
  // are data, not cache — so they must survive and reach the next join
  // through the materialized fallback input.
  cache.EvictToFit(0);
  EXPECT_EQ(cache.stats().base_bytes, 0u);
  EXPECT_EQ(cache.PendingDeltaTuples(dataset.s), 900u);

  CountFactory consumers(kChunks);
  spec.consumers = &consumers;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kFreshSort);
  EXPECT_EQ(consumers.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
  EXPECT_GE(engine.stats().cache_materializations, 1u);

  // The fresh sort re-installed runs covering the delta: warm again,
  // and the deltas are already folded into the base view.
  CountFactory warm(kChunks);
  spec.consumers = &warm;
  report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedBase);
  EXPECT_EQ(warm.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
}

// ---------------------------------------------------------- compaction

TEST(RunCacheTest, CompactionTiersTheDeltaLog) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 10000, 79);
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  std::mt19937_64 rng(22);
  for (int i = 0; i < 8; ++i) {
    const auto batch = RandomBatch(rng, 100, 4 * 10000);
    ASSERT_TRUE(engine.Ingest(dataset.s, batch).ok());
    s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(cache.Peek(dataset.s, kChunks).delta_runs, 8u);

  // Eight contiguous L0 segments above the entry's install point: one
  // tiered merge collapses them into a single L1 segment.
  EXPECT_EQ(cache.CompactPending(nullptr), 1u);
  EXPECT_EQ(cache.stats().compactions, 1u);
  EXPECT_EQ(cache.stats().compacted_segments, 8u);
  const auto peek = cache.Peek(dataset.s, kChunks);
  ASSERT_TRUE(peek.hit);  // the entry still composes across the merge
  EXPECT_EQ(peek.delta_runs, 1u);
  EXPECT_EQ(peek.delta_tuples, 800u);

  CountFactory warm(kChunks);
  spec.consumers = &warm;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedMerge);
  EXPECT_EQ(warm.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
}

TEST(RunCacheTest, CompactionNeverCrossesALiveInstallPoint) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 10000, 80);

  RunCache cache;
  auto engine = MakeEngine(topology);
  engine.set_run_cache(&cache);

  CountFactory cold(kChunks);
  auto spec = PMpsmSpec(dataset, &cold);
  ASSERT_TRUE(engine.Execute(spec).ok());

  std::mt19937_64 rng(33);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Ingest(dataset.s, RandomBatch(rng, 50, 40000)).ok());
  }
  // A second entry installed mid-log (same base runs under a second
  // chunk count): its install point fences the log. Merging across it
  // would straddle the boundary and invalidate a warm entry.
  auto view = cache.Lookup(dataset.s, kChunks);
  ASSERT_TRUE(view.valid());
  ASSERT_TRUE(cache.Install(dataset.s.id(), kChunks + 1, dataset.s.version(),
                            view.base));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Ingest(dataset.s, RandomBatch(rng, 50, 40000)).ok());
  }

  // Two fenced stretches of four L0 segments -> two jobs; with a team
  // they run as stealable guest-safe morsels.
  EXPECT_EQ(cache.CompactPending(&engine.EnsureTeam(kChunks)), 2u);
  const auto first = cache.Peek(dataset.s, kChunks);
  ASSERT_TRUE(first.hit);
  EXPECT_EQ(first.delta_runs, 2u);
  EXPECT_EQ(first.delta_tuples, 400u);
  const auto second = cache.Peek(dataset.s, kChunks + 1);
  ASSERT_TRUE(second.hit);
  EXPECT_EQ(second.delta_runs, 1u);
  EXPECT_EQ(second.delta_tuples, 200u);
}

// --------------------------------------------------- materialized view

TEST(RunCacheTest, MaterializedViewReflectsLogicalContent) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 5000, 81);
  std::vector<Tuple> expected = dataset.s.ToVector();

  RunCache cache;
  std::mt19937_64 rng(44);
  const auto batch = RandomBatch(rng, 300, 20000);
  cache.Ingest(dataset.s, batch);
  expected.insert(expected.end(), batch.begin(), batch.end());

  uint64_t version = 0;
  const auto view = cache.MaterializedView(dataset.s, topology, kChunks,
                                           &version);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(version, dataset.s.version());
  EXPECT_EQ(view->num_chunks(), kChunks);
  auto actual = view->ToVector();
  const auto by_key_payload = [](const Tuple& a, const Tuple& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  };
  std::sort(actual.begin(), actual.end(), by_key_payload);
  std::sort(expected.begin(), expected.end(), by_key_payload);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].key, expected[i].key) << i;
    ASSERT_EQ(actual[i].payload, expected[i].payload) << i;
  }

  // Memoized until the version moves.
  EXPECT_EQ(cache.MaterializedView(dataset.s, topology, kChunks), view);
  cache.Ingest(dataset.s, batch);
  EXPECT_NE(cache.MaterializedView(dataset.s, topology, kChunks), view);
}

// ------------------------------------------------------------- service

TEST(RunCacheServiceTest, WarmRepeatAcrossLanesAndServiceIngest) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 16000, 82);
  std::vector<Tuple> s_mirror = dataset.s.ToVector();

  service::ServiceOptions options;
  options.lanes = 2;
  options.run_cache_bytes = 256u << 20;
  options.engine.workers = kChunks;
  service::JoinService svc(topology, options);
  ASSERT_NE(svc.run_cache(), nullptr);

  std::vector<std::unique_ptr<CountFactory>> consumers;
  std::vector<service::JoinService::QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    consumers.push_back(std::make_unique<CountFactory>(kChunks));
    auto spec = PMpsmSpec(dataset, consumers.back().get());
    auto id = svc.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  const uint64_t expected =
      Reference(dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto report = svc.Wait(ids[i]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(consumers[i]->Result(), expected) << i;
  }
  // One sort fed all four queries (whether batched or cache-served).
  EXPECT_GE(svc.stats().cache_installs, 1u);
  EXPECT_GT(svc.stats().cache_hits, 0u);

  std::mt19937_64 rng(55);
  const auto batch = RandomBatch(rng, 800, 4 * 16000);
  auto version = svc.Ingest(dataset.s, batch);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  s_mirror.insert(s_mirror.end(), batch.begin(), batch.end());

  CountFactory after(kChunks);
  auto spec = PMpsmSpec(dataset, &after);
  auto id = svc.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto report = svc.Wait(*id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run_source, engine::RunSource::kCachedMerge);
  EXPECT_EQ(after.Result(),
            Reference(dataset.r.ToVector(), s_mirror, JoinKind::kInner));
  EXPECT_EQ(svc.stats().cache_ingested_tuples, 800u);
}

TEST(RunCacheServiceTest, ConcurrentSweepWithLiveIngester) {
  const auto topology = Topo();
  auto dataset = MakeDataset(topology, 12000, 83);
  const uint64_t base_expected =
      Reference(dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner);

  service::ServiceOptions options;
  options.lanes = 2;
  options.run_cache_bytes = 256u << 20;
  options.memory_budget_bytes = 512u << 20;  // finite: admission prices it
  options.engine.workers = kChunks;
  service::JoinService svc(topology, options);

  // Ingested keys sit far outside R's key domain, so the inner-join
  // count is invariant no matter when a query observes a delta — every
  // concurrent result has one deterministic expectation. The ingest
  // volume is fixed, not paced by the host: the cache is consulted only
  // when a plan prices merging the delta log below a fresh sort, and a
  // log that grows with the ingester's CPU share (millions of tuples on
  // a loaded host) prices every plan onto the fresh sort.
  constexpr int kIngestBatches = 32;
  constexpr size_t kBatchTuples = 200;
  std::atomic<int> failures{0};
  std::thread ingester([&] {
    std::mt19937_64 rng(66);
    for (int b = 0; b < kIngestBatches; ++b) {
      std::vector<Tuple> batch(kBatchTuples);
      for (auto& t : batch) {
        t = Tuple{(uint64_t{1} << 40) + rng() % 100000, rng()};
      }
      if (!svc.Ingest(dataset.s, batch).ok()) ++failures;
      std::this_thread::yield();
    }
  });

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        CountFactory consumers(kChunks);
        auto spec = PMpsmSpec(dataset, &consumers);
        auto id = svc.Submit(spec);
        if (!id.ok()) {
          ++failures;
          continue;
        }
        auto report = svc.Wait(*id);
        if (!report.ok() || consumers.Result() != base_expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ingester.join();
  svc.Drain();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, uint64_t{kClients * kQueriesPerClient});
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_ingested_tuples, 0u);
  EXPECT_EQ(stats.cache_ingested_tuples, kIngestBatches * kBatchTuples);
}

TEST(RunCacheServiceTest, TinyCacheCapacityEvictsButNeverBreaks) {
  const auto topology = Topo();
  const auto a = MakeDataset(topology, 12000, 84);
  const auto b = MakeDataset(topology, 12000, 85);

  service::ServiceOptions options;
  options.lanes = 1;
  options.run_cache_bytes = 400u << 10;  // one entry fits, two never do
  options.engine.workers = kChunks;
  service::JoinService svc(topology, options);

  for (int round = 0; round < 3; ++round) {
    for (const auto* dataset : {&a, &b}) {
      CountFactory consumers(kChunks);
      auto spec = PMpsmSpec(*dataset, &consumers);
      auto id = svc.Submit(spec);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(svc.Wait(*id).ok());
      EXPECT_EQ(consumers.Result(),
                Reference(dataset->r.ToVector(), dataset->s.ToVector(),
                          JoinKind::kInner));
    }
  }
  EXPECT_GE(svc.stats().cache_evictions, 1u);
  EXPECT_LE(svc.stats().cache_resident_bytes, options.run_cache_bytes);
}

}  // namespace
}  // namespace mpsm::cache

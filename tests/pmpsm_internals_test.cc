// P-MPSM internals: radix-bit resolution, diagnostics, options
// interactions, and counter-balance invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/reference_join.h"
#include "core/b_mpsm.h"
#include "core/consumers.h"
#include "core/p_mpsm.h"
#include "numa/topology.h"
#include "parallel/counters.h"
#include "parallel/task_scheduler.h"
#include "sort/radix_introsort.h"
#include "util/bits.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(4, 8); }

// Phase 2.3's sort segments: in key order from cluster 0, each a
// non-empty run of clusters inside one partition, tiling its
// partition, and at most min(|R| / 2^11, 2^10) + T of them.
void ExpectSegmentsTilePartitions(const PMpsmDiagnostics& diagnostics,
                                  uint64_t r_tuples, uint32_t team_size) {
  const auto& first_cluster = diagnostics.segment_first_cluster;
  const auto& sizes = diagnostics.segment_sizes;
  const auto& first = diagnostics.first_segment;
  const size_t num_segments = sizes.size();
  ASSERT_EQ(first_cluster.size(), num_segments);
  ASSERT_EQ(first.size(), team_size + 1);
  EXPECT_EQ(first.front(), 0u);
  EXPECT_EQ(first.back(), num_segments);
  EXPECT_LE(num_segments,
            std::min<uint64_t>(r_tuples >> 11, 1024) + team_size);
  ASSERT_GT(num_segments, 0u);
  EXPECT_EQ(first_cluster.front(), 0u);
  for (uint32_t p = 0; p < team_size; ++p) {
    uint64_t tuples = 0;
    for (uint32_t s = first[p]; s < first[p + 1]; ++s) {
      tuples += sizes[s];
      const uint32_t end = s + 1 < num_segments
                               ? first_cluster[s + 1]
                               : diagnostics.normalizer.num_clusters();
      ASSERT_LT(first_cluster[s], end) << "segment " << s;
      for (uint32_t c = first_cluster[s]; c < end; ++c) {
        if (diagnostics.splitters.PartitionOfCluster(c) != p) {
          FAIL() << "segment " << s << " of partition " << p
                 << " holds cluster " << c << " of another partition";
        }
      }
    }
    EXPECT_EQ(tuples, diagnostics.partition_sizes[p]) << "partition " << p;
  }
}

// A relation holding `tuples` in order, over `num_chunks` chunks.
Relation FromTuples(const numa::Topology& topology,
                    const std::vector<Tuple>& tuples, uint32_t num_chunks) {
  Relation relation = Relation::Allocate(topology, tuples.size(), num_chunks);
  size_t next = 0;
  for (uint32_t c = 0; c < num_chunks; ++c) {
    Chunk& chunk = relation.chunk(c);
    std::copy_n(tuples.begin() + next, chunk.size, chunk.data);
    next += chunk.size;
  }
  return relation;
}

void Shuffle(std::vector<Tuple>& tuples, Xoshiro256& rng) {
  for (size_t i = tuples.size() - 1; i > 0; --i) {
    std::swap(tuples[i], tuples[rng.NextBounded(i + 1)]);
  }
}

// Joins r with s through P-MPSM under both schedulers and checks each
// answer against ReferenceJoin; returns the stealing run's diagnostics.
PMpsmDiagnostics ExpectJoinMatchesReference(const std::vector<Tuple>& r,
                                            const std::vector<Tuple>& s,
                                            JoinKind kind) {
  const auto topology = Topo();
  const uint32_t team_size = 4;
  const Relation r_rel = FromTuples(topology, r, team_size);
  const Relation s_rel = FromTuples(topology, s, team_size);
  WorkerTeam team(topology, team_size);
  CountFactory reference(1);
  const uint64_t expected =
      baseline::ReferenceJoin(r, s, kind, reference.ConsumerForWorker(0));
  PMpsmDiagnostics diagnostics;
  for (SchedulerKind scheduler :
       {SchedulerKind::kStatic, SchedulerKind::kStealing}) {
    MpsmOptions options;
    options.kind = kind;
    options.scheduler = scheduler;
    CountFactory counts(team_size);
    auto info = PMpsmJoin(options).Execute(team, r_rel, s_rel, counts,
                                           &diagnostics);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(counts.Result(), expected)
        << JoinKindName(kind) << " " << SchedulerKindName(scheduler);
  }
  return diagnostics;
}

TEST(EffectiveRadixBitsTest, DefaultScalesWithTeam) {
  PMpsmJoin join;
  EXPECT_EQ(join.EffectiveRadixBits(1), 10u);   // max(log2(2)+5, 10)
  EXPECT_EQ(join.EffectiveRadixBits(4), 10u);
  EXPECT_EQ(join.EffectiveRadixBits(32), 10u);  // log2(32)+5 = 10
  EXPECT_EQ(join.EffectiveRadixBits(64), 11u);
  EXPECT_EQ(join.EffectiveRadixBits(1024), 15u);
}

TEST(EffectiveRadixBitsTest, ExplicitBitsRespectedButClampedToLogT) {
  MpsmOptions options;
  options.radix_bits = 7;
  EXPECT_EQ(PMpsmJoin(options).EffectiveRadixBits(16), 7u);
  // B must be at least log2(T) to express T partitions.
  EXPECT_EQ(PMpsmJoin(options).EffectiveRadixBits(512), 9u);
}

TEST(PMpsmDiagnosticsTest, PartitionSizesCoverR) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 20000;
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 8, spec);

  WorkerTeam team(topology, 8);
  CountFactory counts(8);
  PMpsmDiagnostics diagnostics;
  auto info = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts,
                                  &diagnostics);
  ASSERT_TRUE(info.ok());

  EXPECT_EQ(diagnostics.partition_sizes.size(), 8u);
  EXPECT_EQ(std::accumulate(diagnostics.partition_sizes.begin(),
                            diagnostics.partition_sizes.end(), uint64_t{0}),
            dataset.r.size());
  EXPECT_EQ(diagnostics.cdf.total(), dataset.s.size());
  EXPECT_EQ(diagnostics.splitters.num_partitions, 8u);
  // The normalizer spans the actual R key range.
  EXPECT_LE(diagnostics.normalizer.min_key(),
            diagnostics.normalizer.max_key());
}

TEST(PMpsmDiagnosticsTest, UniformDataGivesBalancedPartitions) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 80000;
  spec.multiplicity = 1.0;
  const auto dataset = workload::Generate(topology, 8, spec);

  WorkerTeam team(topology, 8);
  CountFactory counts(8);
  PMpsmDiagnostics diagnostics;
  ASSERT_TRUE(PMpsmJoin()
                  .Execute(team, dataset.r, dataset.s, counts, &diagnostics)
                  .ok());
  const uint64_t expected = dataset.r.size() / 8;
  for (uint64_t size : diagnostics.partition_sizes) {
    EXPECT_NEAR(static_cast<double>(size), static_cast<double>(expected),
                0.25 * expected);
  }
}

TEST(PMpsmDiagnosticsTest, SkewedDataStillCostBalanced) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 100000;
  spec.multiplicity = 1.0;
  spec.r_distribution = workload::KeyDistribution::kSkewLowEnd;
  spec.s_mode = workload::SKeyMode::kForeignKey;  // S skewed like R
  const auto dataset = workload::Generate(topology, 8, spec);

  WorkerTeam team(topology, 8);
  CountFactory counts(8);
  PMpsmDiagnostics diagnostics;
  ASSERT_TRUE(PMpsmJoin()
                  .Execute(team, dataset.r, dataset.s, counts, &diagnostics)
                  .ok());
  // Estimated per-partition costs balanced within 2x of the mean.
  const auto& costs = diagnostics.splitters.partition_costs;
  const double avg =
      std::accumulate(costs.begin(), costs.end(), 0.0) / costs.size();
  for (double cost : costs) {
    EXPECT_LT(cost, 2.0 * avg);
  }
}

TEST(PMpsmDiagnosticsTest, SegmentsTilePartitionsInKeyOrder) {
  const auto topology = Topo();
  for (const auto distribution : {workload::KeyDistribution::kUniform,
                                  workload::KeyDistribution::kSkewLowEnd}) {
    workload::DatasetSpec spec;
    spec.r_tuples = 1 << 18;  // ~128 segments: a write-combined scatter
    spec.multiplicity = 1.0;
    spec.r_distribution = distribution;
    const auto dataset = workload::Generate(topology, 4, spec);
    WorkerTeam team(topology, 4);
    for (SchedulerKind scheduler :
         {SchedulerKind::kStatic, SchedulerKind::kStealing}) {
      MpsmOptions options;
      options.scheduler = scheduler;
      CountFactory counts(4);
      PMpsmDiagnostics diagnostics;
      ASSERT_TRUE(PMpsmJoin(options)
                      .Execute(team, dataset.r, dataset.s, counts,
                               &diagnostics)
                      .ok());
      SCOPED_TRACE(SchedulerKindName(scheduler));
      ExpectSegmentsTilePartitions(diagnostics, dataset.r.size(), 4);
      EXPECT_GE(diagnostics.segment_sizes.size(), 100u);
    }
  }
}

// One key holds more R tuples than the LSD bound, so its segment takes
// SortTuples' MSD path.
TEST(PMpsmSegmentSortTest, OversizedSegmentMatchesReference) {
  const size_t bound = sort::RadixSortConfig{}.repartition_threshold;
  Xoshiro256 rng(61);
  std::vector<Tuple> r;
  for (uint64_t i = 0; i < bound + 8000; ++i) r.push_back(Tuple{777, i});
  for (uint64_t i = 0; i < 30000; ++i) {
    r.push_back(Tuple{rng.NextBounded(1 << 20), i});
  }
  Shuffle(r, rng);
  std::vector<Tuple> s;
  for (uint64_t i = 0; i < 20000; ++i) {
    s.push_back(Tuple{rng.NextBounded(1 << 20), i});
  }
  s.push_back(Tuple{777, 1});
  s.push_back(Tuple{777, 2});
  const PMpsmDiagnostics diagnostics =
      ExpectJoinMatchesReference(r, s, JoinKind::kInner);
  EXPECT_GT(*std::max_element(diagnostics.segment_sizes.begin(),
                              diagnostics.segment_sizes.end()),
            bound);
}

// R spans the whole key domain, 0 and UINT64_MAX included, with most
// keys in the top cluster: its segment sorts on 54 bits.
TEST(PMpsmSegmentSortTest, FullKeyDomainMatchesReference) {
  Xoshiro256 rng(67);
  std::vector<Tuple> r;
  std::vector<Tuple> s;
  for (uint64_t i = 0; i < 30000; ++i) {
    const uint64_t key = i % 3 == 0 ? rng.Next() : rng.Next() | (~0ull << 54);
    r.push_back(Tuple{key, i});
    if (i % 2 == 0) s.push_back(Tuple{key, i});
  }
  for (const uint64_t key :
       {uint64_t{0}, uint64_t{1}, UINT64_MAX - 1, UINT64_MAX}) {
    r.push_back(Tuple{key, 1});
    r.push_back(Tuple{key, 2});
    s.push_back(Tuple{key, 3});
  }
  Shuffle(r, rng);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftAnti}) {
    ExpectJoinMatchesReference(r, s, kind);
  }
}

// R keys fill [UINT64_MAX - 2^17, UINT64_MAX]: 2^10 clusters of 256
// keys, the last non-empty one (cluster 512) holding UINT64_MAX alone.
// Cluster 510 is full enough to close its segment, so the top segment
// starts at cluster 511 and spans 256 + 1 keys: it needs 9 bits, which
// an exclusive high key saturated at UINT64_MAX would cut to 8.
TEST(PMpsmSegmentSortTest, TopSegmentEndingAtMaxKeyMatchesReference) {
  Xoshiro256 rng(71);
  const uint64_t min_key = UINT64_MAX - (uint64_t{1} << 17);
  std::vector<Tuple> r;
  std::vector<Tuple> s;
  auto add = [&](uint64_t key, uint64_t payload) {
    r.push_back(Tuple{key, payload});
    if (payload % 4 == 0) s.push_back(Tuple{key, payload});
  };
  add(min_key, 0);
  for (uint64_t i = 0; i < 5000; ++i) {
    add(min_key + rng.NextBounded(uint64_t{1} << 17), i);
  }
  for (uint64_t i = 0; i < 3000; ++i) {
    add(min_key + 510 * 256 + rng.NextBounded(256), i);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    add(min_key + 511 * 256 + (i == 0 ? 0 : rng.NextBounded(256)), i);
  }
  for (uint64_t i = 0; i < 4; ++i) add(UINT64_MAX, i);
  Shuffle(r, rng);
  ExpectJoinMatchesReference(r, s, JoinKind::kInner);
}

TEST(PMpsmOptionsTest, AllSearchStrategiesAgree) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 15000;
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, spec);
  WorkerTeam team(topology, 4);

  uint64_t reference = 0;
  bool first = true;
  // Phase-4 random-read bytes per strategy: the start searches' probes
  // (§3.2.2), in interpolation / binary / linear order.
  std::vector<uint64_t> probe_bytes;
  for (auto search : {StartSearch::kInterpolation, StartSearch::kBinary,
                      StartSearch::kLinear}) {
    MpsmOptions options;
    options.start_search = search;
    CountFactory counts(4);
    auto info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    if (first) {
      reference = counts.Result();
      first = false;
    } else {
      EXPECT_EQ(counts.Result(), reference);
    }
    uint64_t bytes = 0;
    for (const auto& worker : info->workers) {
      const PerfCounters& join = worker.phase_counters[kPhaseJoin];
      bytes += join.bytes_read_local_rand + join.bytes_read_remote_rand;
    }
    probe_bytes.push_back(bytes);
  }
  EXPECT_GT(reference, 0u);
  // The paper's ordering: interpolation probes least, and the linear
  // scan reads every tuple below each run's start.
  EXPECT_LT(probe_bytes[0], probe_bytes[1]);
  EXPECT_LT(probe_bytes[1], probe_bytes[2]);
  EXPECT_GE(probe_bytes[2], 100 * probe_bytes[0]);
}

TEST(PMpsmOptionsTest, RadixBitSweepAgrees) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 15000;
  spec.multiplicity = 1.0;
  spec.r_distribution = workload::KeyDistribution::kSkewHighEnd;
  const auto dataset = workload::Generate(topology, 4, spec);
  WorkerTeam team(topology, 4);

  CountFactory base(4);
  ASSERT_TRUE(PMpsmJoin().Execute(team, dataset.r, dataset.s, base).ok());
  // The segment count, the scatter's fan-out, stays bounded by |R| and
  // T however many clusters the bits make.
  for (uint32_t bits : {2u, 5u, 8u, 12u, 16u, 20u}) {
    MpsmOptions options;
    options.radix_bits = bits;
    CountFactory counts(4);
    PMpsmDiagnostics diagnostics;
    ASSERT_TRUE(PMpsmJoin(options)
                    .Execute(team, dataset.r, dataset.s, counts, &diagnostics)
                    .ok());
    EXPECT_EQ(counts.Result(), base.Result()) << "bits=" << bits;
    SCOPED_TRACE(testing::Message() << "bits=" << bits);
    ExpectSegmentsTilePartitions(diagnostics, dataset.r.size(), 4);
  }
}

TEST(PMpsmCountersTest, ScatterWritesExactlyR) {
  // The scalar scatter is charged at the random-write rate, write
  // combining at the sequential rate (docs/tuning.md); either way the
  // phase writes exactly |R| tuples. The fan-out picks the kernel: on
  // 8 workers 30,000 tuples cut into 22 sort segments (scalar), 2^18
  // into 136 (write combining, at 100 or more).
  struct Case {
    size_t r_tuples;
    bool write_combining;
  };
  const auto topology = Topo();
  WorkerTeam team(topology, 8);
  for (const Case c : {Case{30000, false}, Case{size_t{1} << 18, true}}) {
    SCOPED_TRACE("|R|=" + std::to_string(c.r_tuples));
    workload::DatasetSpec spec;
    spec.r_tuples = c.r_tuples;
    spec.multiplicity = 1.0;
    const auto dataset = workload::Generate(topology, 8, spec);
    CountFactory counts(8);
    auto info = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
    ASSERT_TRUE(info.ok());
    const auto& partition = info->aggregate.phase_counters[kPhasePartition];
    const uint64_t written =
        c.write_combining ? partition.bytes_written_local_seq +
                                partition.bytes_written_remote_seq
                          : partition.bytes_written_local_rand +
                                partition.bytes_written_remote_rand;
    EXPECT_EQ(written, dataset.r.size() * sizeof(Tuple));
  }
}

TEST(PMpsmCountersTest, SortWorkCoversBothInputs) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 20000;
  spec.multiplicity = 3.0;
  const auto dataset = workload::Generate(topology, 4, spec);
  WorkerTeam team(topology, 4);

  // Phase 3 sorts partition by segment, but charges what sorting each
  // partition whole does: n * ceil(log2 n) per partition.
  for (SchedulerKind scheduler :
       {SchedulerKind::kStatic, SchedulerKind::kStealing}) {
    MpsmOptions options;
    options.scheduler = scheduler;
    CountFactory counts(4);
    PMpsmDiagnostics diagnostics;
    auto info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s,
                                           counts, &diagnostics);
    ASSERT_TRUE(info.ok());
    const auto total = info->aggregate.TotalCounters();
    EXPECT_EQ(total.sort_tuples, dataset.r.size() + dataset.s.size());
    uint64_t partition_logs = 0;
    for (uint64_t n : diagnostics.partition_sizes) {
      partition_logs += n * (n > 1 ? bits::Log2Ceil(n) : 1);
    }
    const auto& phase3 = info->aggregate.phase_counters[kPhaseSortPrivate];
    EXPECT_EQ(phase3.sort_tuples, dataset.r.size());
    EXPECT_EQ(phase3.sort_tuple_logs, partition_logs)
        << SchedulerKindName(scheduler);
  }
}

// ------------------------------------- scheduler A/B (location skew)

// Fig-16-style negatively correlated skew with the equi-height
// strawman splitters: partition sizes are deliberately unbalanced, so
// the static script leaves one straggler with most of phases 3/4. At
// up to 8 workers every chunk holds at least two kMorselTuples-tuple
// morsels.
constexpr size_t kSkewedRTuples = 300000;
static_assert(kSkewedRTuples / 8 >= 2 * kMorselTuples);

workload::Dataset SkewedDataset(const numa::Topology& topology,
                                uint32_t team_size) {
  workload::DatasetSpec spec;
  spec.r_tuples = kSkewedRTuples;
  spec.multiplicity = 2.0;
  spec.key_domain = kSkewedRTuples * 5 / 2;
  spec.r_distribution = workload::KeyDistribution::kSkewHighEnd;
  spec.s_distribution = workload::KeyDistribution::kSkewLowEnd;
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 4242;
  return workload::Generate(topology, team_size, spec);
}

MpsmOptions SkewOptions(SchedulerKind scheduler) {
  MpsmOptions options;
  options.scheduler = scheduler;
  options.cost_balanced_splitters = false;  // force partition imbalance
  return options;
}

TEST(SchedulerABTest, StealingMatchesStaticUnderLocationSkew) {
  const auto topology = Topo();
  const uint32_t team_size = 8;
  const auto dataset = SkewedDataset(topology, team_size);
  WorkerTeam team(topology, team_size);

  CountFactory static_counts(team_size);
  ASSERT_TRUE(PMpsmJoin(SkewOptions(SchedulerKind::kStatic))
                  .Execute(team, dataset.r, dataset.s, static_counts)
                  .ok());
  CountFactory stealing_counts(team_size);
  ASSERT_TRUE(PMpsmJoin(SkewOptions(SchedulerKind::kStealing))
                  .Execute(team, dataset.r, dataset.s, stealing_counts)
                  .ok());
  EXPECT_GT(static_counts.Result(), 0u);
  EXPECT_EQ(stealing_counts.Result(), static_counts.Result());
}

TEST(SchedulerABTest, StealingMatchesStaticForAllJoinKinds) {
  const auto topology = Topo();
  const uint32_t team_size = 4;
  const auto dataset = SkewedDataset(topology, team_size);
  WorkerTeam team(topology, team_size);

  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftSemi,
                        JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
    MpsmOptions static_options = SkewOptions(SchedulerKind::kStatic);
    static_options.kind = kind;
    MpsmOptions stealing_options = SkewOptions(SchedulerKind::kStealing);
    stealing_options.kind = kind;

    CountFactory static_counts(team_size);
    ASSERT_TRUE(PMpsmJoin(static_options)
                    .Execute(team, dataset.r, dataset.s, static_counts)
                    .ok());
    CountFactory stealing_counts(team_size);
    ASSERT_TRUE(PMpsmJoin(stealing_options)
                    .Execute(team, dataset.r, dataset.s, stealing_counts)
                    .ok());
    EXPECT_EQ(stealing_counts.Result(), static_counts.Result())
        << JoinKindName(kind);
  }
}

// No worker idles while morsels remain: by construction a Claim only
// fails once every queue is drained, so the morsel totals must match
// the slicing exactly — every phase-4 morsel executed exactly once,
// across all workers, stolen or not.
TEST(SchedulerABTest, AllMergeMorselsExecutedExactlyOnce) {
  const auto topology = Topo();
  const uint32_t team_size = 8;
  const auto dataset = SkewedDataset(topology, team_size);
  WorkerTeam team(topology, team_size);

  const MpsmOptions options = SkewOptions(SchedulerKind::kStealing);
  CountFactory counts(team_size);
  PMpsmDiagnostics diagnostics;
  auto info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts,
                                         &diagnostics);
  ASSERT_TRUE(info.ok());

  // Expected phase-4 morsels: per non-empty partition i,
  // ceil(size_i / kMorselTuples) ranges x team_size public runs.
  uint64_t expected = 0;
  for (uint64_t size : diagnostics.partition_sizes) {
    if (size == 0) continue;
    const uint64_t ranges = (size + kMorselTuples - 1) / kMorselTuples;
    expected += ranges * team_size;
  }
  const auto& join_counters =
      info->aggregate.phase_counters[kPhaseJoin];
  EXPECT_EQ(join_counters.morsels_executed, expected);
  // The slicing is genuinely fine-grained: far more morsels than the
  // static script's one-per-worker, so stragglers have work to give up.
  EXPECT_GT(expected, uint64_t{team_size} * team_size);
}

// Static scheduling runs the stealing plan with whole-task morsels on
// per-worker lists: one phase-3 morsel per non-empty partition, one
// phase-4 morsel per (non-empty private run, public run) for inner
// joins and per non-empty private run for the bitmap kinds, and no
// claim atomics or steals in any phase.
TEST(SchedulerABTest, StaticClaimsEachTaskWhole) {
  const auto topology = Topo();
  const uint32_t team_size = 8;
  const auto dataset = SkewedDataset(topology, team_size);
  WorkerTeam team(topology, team_size);

  const auto expect_no_claim_sync = [](const JoinRunInfo& info,
                                       const std::string& label) {
    for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
      const PerfCounters& c = info.aggregate.phase_counters[p];
      EXPECT_EQ(c.sync_acquisitions, 0u) << label << " phase " << p;
      EXPECT_EQ(c.morsels_stolen, 0u) << label << " phase " << p;
    }
  };

  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftSemi,
                        JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
    MpsmOptions options = SkewOptions(SchedulerKind::kStatic);
    options.kind = kind;
    CountFactory counts(team_size);
    PMpsmDiagnostics diagnostics;
    auto info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s,
                                           counts, &diagnostics);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    const uint64_t non_empty = static_cast<uint64_t>(
        std::count_if(diagnostics.partition_sizes.begin(),
                      diagnostics.partition_sizes.end(),
                      [](uint64_t size) { return size > 0; }));
    ASSERT_GT(non_empty, 1u);
    const auto& phases = info->aggregate.phase_counters;
    EXPECT_EQ(phases[kPhaseSortPrivate].morsels_executed, non_empty)
        << JoinKindName(kind);
    EXPECT_EQ(phases[kPhaseJoin].morsels_executed,
              kind == JoinKind::kInner ? non_empty * team_size : non_empty)
        << JoinKindName(kind);
    expect_no_claim_sync(*info, std::string("p-mpsm ") + JoinKindName(kind));
  }

  CountFactory counts(team_size);
  auto info = BMpsmJoin(SkewOptions(SchedulerKind::kStatic))
                  .Execute(team, dataset.r, dataset.s, counts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  uint64_t non_empty_runs = 0;
  for (uint32_t w = 0; w < team_size; ++w) {
    if (dataset.r.chunk(w).size > 0) ++non_empty_runs;
  }
  EXPECT_EQ(info->aggregate.phase_counters[kPhaseJoin].morsels_executed,
            non_empty_runs * team_size);
  expect_no_claim_sync(*info, "b-mpsm");
}

TEST(JoinRunInfoTest, PhaseBreakdownRendering) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 5000;
  spec.multiplicity = 1.0;
  const auto dataset = workload::Generate(topology, 2, spec);
  WorkerTeam team(topology, 2);
  CountFactory counts(2);
  auto info = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
  ASSERT_TRUE(info.ok());

  EXPECT_EQ(info->workers.size(), 2u);
  EXPECT_GT(info->wall_seconds, 0.0);
  EXPECT_GT(info->critical_path_seconds, 0.0);
  const auto phases = info->MaxPhaseSeconds();
  double sum = 0;
  for (double p : phases) sum += p;
  EXPECT_GT(sum, 0.0);
  const std::string breakdown = info->PhaseBreakdownString();
  EXPECT_NE(breakdown.find("phase 1"), std::string::npos);
  EXPECT_NE(breakdown.find("critical path"), std::string::npos);
}

}  // namespace
}  // namespace mpsm

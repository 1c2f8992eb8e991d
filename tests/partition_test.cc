// Partition machinery: key normalizer, radix histograms, prefix-sum
// scatter plans, equi-height histograms, the merged CDF, and the
// cost-balanced splitter computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "partition/cdf.h"
#include "partition/equi_height.h"
#include "partition/key_normalizer.h"
#include "partition/prefix_scatter.h"
#include "partition/radix_histogram.h"
#include "partition/splitters.h"
#include "sort/radix_introsort.h"
#include "util/rng.h"

namespace mpsm {
namespace {

// ---------------------------------------------------- key normalizer

TEST(KeyNormalizerTest, FullDomainTopBits) {
  KeyNormalizer norm(0, (uint64_t{1} << 32) - 1, 8);
  EXPECT_EQ(norm.num_clusters(), 256u);
  EXPECT_EQ(norm.Cluster(0), 0u);
  EXPECT_EQ(norm.Cluster((uint64_t{1} << 32) - 1), 255u);
  EXPECT_EQ(norm.Cluster(uint64_t{1} << 31), 128u);
}

TEST(KeyNormalizerTest, OffsetDomain) {
  KeyNormalizer norm(1000, 1000 + 1023, 2);
  EXPECT_EQ(norm.Cluster(1000), 0u);
  EXPECT_EQ(norm.Cluster(1255), 0u);
  EXPECT_EQ(norm.Cluster(1256), 1u);
  EXPECT_EQ(norm.Cluster(2023), 3u);
}

TEST(KeyNormalizerTest, ClampsOutOfRangeKeys) {
  KeyNormalizer norm(100, 200, 3);
  EXPECT_EQ(norm.Cluster(0), 0u);
  EXPECT_EQ(norm.Cluster(99), 0u);
  EXPECT_EQ(norm.Cluster(5000), norm.num_clusters() - 1);
}

TEST(KeyNormalizerTest, DegenerateSingleKeyDomain) {
  KeyNormalizer norm(77, 77, 4);
  EXPECT_EQ(norm.Cluster(77), 0u);
  // Out-of-range keys still map to a valid cluster index.
  EXPECT_LT(norm.Cluster(78), norm.num_clusters());
  EXPECT_EQ(norm.Cluster(100000), norm.num_clusters() - 1);
}

TEST(KeyNormalizerTest, ClusterBoundsRoundTrip) {
  KeyNormalizer norm(0, (uint64_t{1} << 20) - 1, 6);
  for (uint32_t c = 0; c < norm.num_clusters(); ++c) {
    EXPECT_EQ(norm.Cluster(norm.ClusterLowKey(c)), c);
    EXPECT_LT(norm.ClusterLowKey(c), norm.ClusterHighKey(c));
    if (c + 1 < norm.num_clusters()) {
      EXPECT_EQ(norm.ClusterHighKey(c), norm.ClusterLowKey(c + 1));
    }
  }
}

TEST(KeyNormalizerTest, HighKeySaturatesAtTopOfDomain) {
  // The top cluster ends at UINT64_MAX itself, which has no successor:
  // its exclusive high key saturates there instead of wrapping to 0.
  KeyNormalizer norm(0, UINT64_MAX, 10);
  for (uint32_t c = 0; c < norm.num_clusters(); ++c) {
    EXPECT_LT(norm.ClusterLowKey(c), norm.ClusterHighKey(c)) << c;
  }
  EXPECT_EQ(norm.ClusterHighKey(norm.num_clusters() - 1), UINT64_MAX);

  // S spread evenly over the whole domain, so the top cluster holds
  // 1/1024 of it: the splitters must see those tuples.
  std::vector<Tuple> s(1 << 14);
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = Tuple{(UINT64_MAX / s.size()) * i, 0};
  }
  ::mpsm::Run run{s.data(), s.size(), 0};
  const Cdf cdf = Cdf::FromHistograms({BuildEquiHeightHistogram(run, 256)});
  EXPECT_GT(EstimateClusterS(norm, cdf).back(), 0.0);
}

TEST(KeyNormalizerTest, ClusterIsMonotoneInKey) {
  KeyNormalizer norm(500, 100000, 7);
  Xoshiro256 rng(3);
  uint64_t previous_key = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t key = previous_key + rng.NextBounded(500);
    EXPECT_GE(norm.Cluster(key), norm.Cluster(previous_key));
    previous_key = key;
  }
}

// -------------------------------------------------- radix histograms

TEST(RadixHistogramTest, CountsEveryTuple) {
  Xoshiro256 rng(5);
  std::vector<Tuple> data(10000);
  for (auto& t : data) t = Tuple{rng.NextBounded(1u << 20), 0};
  KeyNormalizer norm(0, (1u << 20) - 1, 8);
  const auto histogram = BuildRadixHistogram(data.data(), data.size(), norm);
  EXPECT_EQ(histogram.size(), 256u);
  EXPECT_EQ(HistogramTotal(histogram), data.size());

  // Spot-check: recount cluster of each tuple.
  RadixHistogram recount(256, 0);
  for (const auto& t : data) ++recount[norm.Cluster(t.key)];
  EXPECT_EQ(histogram, recount);
}

TEST(RadixHistogramTest, CombineSums) {
  RadixHistogram a = {1, 2, 3};
  RadixHistogram b = {10, 0, 5};
  const auto combined = CombineHistograms({a, b});
  EXPECT_EQ(combined, (RadixHistogram{11, 2, 8}));
  EXPECT_TRUE(CombineHistograms({}).empty());
}

TEST(KeyRangeTest, ScanAndMerge) {
  std::vector<Tuple> data = {{5, 0}, {3, 0}, {9, 0}, {7, 0}};
  const auto range = ScanKeyRange(data.data(), data.size());
  EXPECT_EQ(range.min_key, 3u);
  EXPECT_EQ(range.max_key, 9u);

  const auto merged = MergeKeyRanges(range, KeyRange{1, 4});
  EXPECT_EQ(merged.min_key, 1u);
  EXPECT_EQ(merged.max_key, 9u);

  const auto empty = ScanKeyRange(nullptr, 0);
  EXPECT_EQ(empty.min_key, 0u);
  EXPECT_EQ(empty.max_key, 0u);
}

// ------------------------------------------------------ scatter plan

TEST(ScatterPlanTest, MatchesPaperFigure6Example) {
  // Figure 6: two workers, histograms h1 = (4,3), h2 = (3,4).
  // ps1 = (0,0); ps2 = (4,3); partition sizes (7,7).
  const auto plan = ComputeScatterPlan({{4, 3}, {3, 4}});
  EXPECT_EQ(plan.partition_sizes, (std::vector<uint64_t>{7, 7}));
  EXPECT_EQ(plan.start_offset[0], (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(plan.start_offset[1], (std::vector<uint64_t>{4, 3}));
}

TEST(ScatterPlanTest, RangesAreDisjointAndCovering) {
  Xoshiro256 rng(8);
  const uint32_t workers = 5, partitions = 7;
  std::vector<std::vector<uint64_t>> hist(workers,
                                          std::vector<uint64_t>(partitions));
  for (auto& h : hist) {
    for (auto& v : h) v = rng.NextBounded(50);
  }
  const auto plan = ComputeScatterPlan(hist);
  for (uint32_t p = 0; p < partitions; ++p) {
    uint64_t offset = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      EXPECT_EQ(plan.start_offset[w][p], offset);
      offset += hist[w][p];
    }
    EXPECT_EQ(plan.partition_sizes[p], offset);
  }
}

TEST(ScatterChunkTest, ScattersToCorrectPartitions) {
  // 2 partitions by key parity; verify every tuple lands in the right
  // partition at the planned offsets.
  std::vector<Tuple> chunk;
  for (uint64_t i = 0; i < 100; ++i) chunk.push_back(Tuple{i, i});
  std::vector<uint64_t> hist(2, 0);
  for (const auto& t : chunk) ++hist[t.key & 1];

  std::vector<Tuple> even(hist[0]), odd(hist[1]);
  Tuple* dest[2] = {even.data(), odd.data()};
  std::vector<uint64_t> cursor = {0, 0};
  ScatterChunk(chunk.data(), chunk.size(),
               [](uint64_t key) { return static_cast<uint32_t>(key & 1); },
               dest, cursor.data());
  EXPECT_EQ(cursor[0], hist[0]);
  EXPECT_EQ(cursor[1], hist[1]);
  for (const auto& t : even) EXPECT_EQ(t.key & 1, 0u);
  for (const auto& t : odd) EXPECT_EQ(t.key & 1, 1u);
}

// ------------------------------------- write-combining scatter

// Runs the scalar and write-combining scatters over the same chunk and
// expects bit-identical partition arrays and final cursors. `dest`
// offsets come from a real per-worker plan so flush targets start at
// arbitrary (line-misaligned) positions.
template <typename PartitionOf>
void ExpectWcMatchesScalar(const std::vector<Tuple>& chunk,
                           uint32_t num_partitions,
                           const PartitionOf& partition_of,
                           uint64_t worker_start = 0) {
  std::vector<uint64_t> hist(num_partitions, 0);
  for (const auto& t : chunk) ++hist[partition_of(t.key)];

  // Layout: every partition gets `worker_start` tuples of headroom (a
  // previous worker's range) marked with a sentinel that must survive.
  const Tuple sentinel{~uint64_t{0}, ~uint64_t{0}};
  std::vector<std::vector<Tuple>> scalar_parts(num_partitions),
      wc_parts(num_partitions);
  std::vector<Tuple*> scalar_dest(num_partitions), wc_dest(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    scalar_parts[p].assign(worker_start + hist[p], sentinel);
    wc_parts[p].assign(worker_start + hist[p], sentinel);
    scalar_dest[p] = scalar_parts[p].data();
    wc_dest[p] = wc_parts[p].data();
  }

  std::vector<uint64_t> scalar_cursor(num_partitions, worker_start);
  std::vector<uint64_t> wc_cursor(num_partitions, worker_start);
  ScatterChunk(chunk.data(), chunk.size(), partition_of, scalar_dest.data(),
               scalar_cursor.data());
  ScatterChunkWriteCombining(chunk.data(), chunk.size(), partition_of,
                             wc_dest.data(), wc_cursor.data(),
                             num_partitions);

  EXPECT_EQ(scalar_cursor, wc_cursor);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    EXPECT_EQ(scalar_parts[p], wc_parts[p]) << "partition " << p;
  }
}

TEST(WriteCombiningScatterTest, MatchesScalarOnRandomChunk) {
  Xoshiro256 rng(31);
  // Chunk size is deliberately not a multiple of kWcBufferTuples, so
  // every partition ends on a partial-buffer drain.
  std::vector<Tuple> chunk(100003);
  for (uint64_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = Tuple{rng.NextBounded(1 << 20), i};
  }
  ExpectWcMatchesScalar(chunk, 13,
                        [](uint64_t key) {
                          return static_cast<uint32_t>(key % 13);
                        });
}

TEST(WriteCombiningScatterTest, MisalignedStartOffsets) {
  // Start cursors 1..7 exercise the scalar head fix-up before the
  // flushes become line-aligned.
  Xoshiro256 rng(37);
  std::vector<Tuple> chunk(4096 + 9);
  for (uint64_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = Tuple{rng.Next(), i};
  }
  for (uint64_t start : {1u, 2u, 3u, 5u, 7u}) {
    ExpectWcMatchesScalar(chunk, 8,
                          [](uint64_t key) {
                            return static_cast<uint32_t>(key & 7);
                          },
                          start);
  }
}

TEST(WriteCombiningScatterTest, EmptyPartitionsStayUntouched) {
  // Keys map onto 3 of 11 partitions; the other 8 must see no writes.
  std::vector<Tuple> chunk;
  for (uint64_t i = 0; i < 1000; ++i) chunk.push_back(Tuple{i % 3, i});
  ExpectWcMatchesScalar(chunk, 11, [](uint64_t key) {
    return static_cast<uint32_t>(key);  // only 0, 1, 2 occur
  });
}

TEST(WriteCombiningScatterTest, ExternalStagedBuffersMatchLocal) {
  // Caller-owned staging buffers (the NUMA destination-homed path of
  // P-MPSM) must behave exactly like the worker-local allocation —
  // including reuse across calls without any reset in between.
  Xoshiro256 rng(51);
  std::vector<Tuple> chunk(30011);
  for (uint64_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = Tuple{rng.NextBounded(1 << 16), i};
  }
  const uint32_t num_partitions = 9;
  const auto partition_of = [](uint64_t key) {
    return static_cast<uint32_t>(key % 9);
  };
  std::vector<uint64_t> hist(num_partitions, 0);
  for (const auto& t : chunk) ++hist[partition_of(t.key)];

  auto storage =
      std::make_unique<internal::WcBuffer[]>(num_partitions);
  std::vector<internal::WcBuffer*> staged(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) staged[p] = &storage[p];

  for (int round = 0; round < 2; ++round) {  // reuse across calls
    std::vector<std::vector<Tuple>> local_parts(num_partitions),
        staged_parts(num_partitions);
    std::vector<Tuple*> local_dest(num_partitions),
        staged_dest(num_partitions);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      local_parts[p].resize(hist[p]);
      staged_parts[p].resize(hist[p]);
      local_dest[p] = local_parts[p].data();
      staged_dest[p] = staged_parts[p].data();
    }
    std::vector<uint64_t> local_cursor(num_partitions, 0),
        staged_cursor(num_partitions, 0);
    ScatterChunkWriteCombining(chunk.data(), chunk.size(), partition_of,
                               local_dest.data(), local_cursor.data(),
                               num_partitions);
    ScatterChunkWriteCombining(chunk.data(), chunk.size(), partition_of,
                               staged_dest.data(), staged_cursor.data(),
                               num_partitions, staged.data());
    EXPECT_EQ(staged_cursor, local_cursor);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      EXPECT_EQ(staged_parts[p], local_parts[p])
          << "round " << round << " partition " << p;
    }
  }
}

TEST(WriteCombiningScatterTest, SinglePartitionDegenerates) {
  std::vector<Tuple> chunk;
  for (uint64_t i = 0; i < 777; ++i) chunk.push_back(Tuple{i, i});
  ExpectWcMatchesScalar(chunk, 1, [](uint64_t) { return 0u; });
}

TEST(WriteCombiningScatterTest, ChunksSmallerThanBuffer) {
  for (size_t n : {0u, 1u, 2u, 7u,
                   static_cast<unsigned>(kWcBufferTuples) - 1,
                   static_cast<unsigned>(kWcBufferTuples),
                   static_cast<unsigned>(kWcBufferTuples) + 1}) {
    std::vector<Tuple> chunk;
    for (uint64_t i = 0; i < n; ++i) chunk.push_back(Tuple{i, i});
    ExpectWcMatchesScalar(chunk, 4, [](uint64_t key) {
      return static_cast<uint32_t>(key & 3);
    });
  }
}

TEST(ScatterPlanValidationTest, AcceptsComputedPlans) {
  Xoshiro256 rng(19);
  std::vector<std::vector<uint64_t>> hist(6, std::vector<uint64_t>(9));
  for (auto& h : hist) {
    for (auto& v : h) v = rng.NextBounded(100);
  }
  const auto plan = ComputeScatterPlan(hist);
  EXPECT_TRUE(ScatterPlanIsConsistent(plan, hist));
}

TEST(ScatterPlanValidationTest, RejectsTamperedPlans) {
  const std::vector<std::vector<uint64_t>> hist = {{4, 3}, {3, 4}};
  const auto good = ComputeScatterPlan(hist);

  auto overlapping = good;
  overlapping.start_offset[1][0] = 3;  // overlaps worker 0's [0, 4)
  EXPECT_FALSE(ScatterPlanIsConsistent(overlapping, hist));

  auto wrong_size = good;
  wrong_size.partition_sizes[1] = 8;  // histograms say 7
  EXPECT_FALSE(ScatterPlanIsConsistent(wrong_size, hist));

  auto missing_worker = good;
  missing_worker.start_offset.pop_back();
  EXPECT_FALSE(ScatterPlanIsConsistent(missing_worker, hist));

  // Histograms that disagree with the plan's shape.
  EXPECT_FALSE(ScatterPlanIsConsistent(good, {{4, 3, 0}, {3, 4, 0}}));
}

// ------------------------------------- morsel-sliced scatter blocks

TEST(ScatterBlockValidationTest, AcceptsExactTilings) {
  // Chunk 0 sliced into three blocks, chunk 1 into one, chunk 2 empty
  // with the canonical single empty block.
  const std::vector<ScatterBlock> blocks = {
      {0, 0, 10}, {0, 10, 20}, {0, 20, 25}, {1, 0, 7}, {2, 0, 0}};
  EXPECT_TRUE(ScatterBlocksTileChunks(blocks, {25, 7, 0}));
}

TEST(ScatterBlockValidationTest, RejectsGapsOverlapsAndStrays) {
  // Gap: chunk 0 misses [10, 12).
  EXPECT_FALSE(
      ScatterBlocksTileChunks({{0, 0, 10}, {0, 12, 25}}, {25}));
  // Overlap: [8, 10) scattered twice.
  EXPECT_FALSE(
      ScatterBlocksTileChunks({{0, 0, 10}, {0, 8, 25}}, {25}));
  // Tail not covered.
  EXPECT_FALSE(ScatterBlocksTileChunks({{0, 0, 20}}, {25}));
  // Uncovered chunk.
  EXPECT_FALSE(ScatterBlocksTileChunks({{0, 0, 25}}, {25, 7}));
  // Stray chunk id.
  EXPECT_FALSE(ScatterBlocksTileChunks({{1, 0, 25}}, {25}));
  // Inverted range.
  EXPECT_FALSE(ScatterBlocksTileChunks({{0, 10, 5}}, {25}));
}

// ------------------------------------------------ auto scatter kind

TEST(ScatterKindTest, AutoResolvesAtFanoutCrossover) {
  // Below the ~100-partition crossover: scalar.
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kAuto, 1 << 20, 32),
            ScatterKind::kScalar);
  // At/above it with enough tuples: write combining.
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kAuto, 1 << 20, 512),
            ScatterKind::kWriteCombining);
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kAuto, 1 << 20,
                               kScatterAutoFanoutCrossover),
            ScatterKind::kWriteCombining);
  // Big fan-out but fewer tuples than partitions: staging buffers
  // cannot fill, scalar wins.
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kAuto, 64, 2048),
            ScatterKind::kScalar);
  // Explicit kinds pass through untouched.
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kScalar, 1 << 20, 512),
            ScatterKind::kScalar);
  EXPECT_EQ(ResolveScatterKind(ScatterKind::kWriteCombining, 64, 8),
            ScatterKind::kWriteCombining);
  EXPECT_STREQ(ScatterKindName(ScatterKind::kAuto), "auto");
}

// ----------------------------------------------- equi-height + CDF

std::vector<Tuple> SortedTuples(size_t n, uint64_t seed, uint64_t domain) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> data(n);
  for (auto& t : data) t = Tuple{rng.NextBounded(domain), 0};
  sort::RadixIntroSort(data.data(), n);
  return data;
}

TEST(EquiHeightTest, BoundsAreRunKeysAndMonotone) {
  auto tuples = SortedTuples(10000, 2, 1 << 20);
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const auto histogram = BuildEquiHeightHistogram(run, 16);
  EXPECT_EQ(histogram.run_size, run.size);
  ASSERT_EQ(histogram.bounds.size(), 16u);
  EXPECT_TRUE(std::is_sorted(histogram.bounds.begin(),
                             histogram.bounds.end()));
  EXPECT_EQ(histogram.bounds.back(), run.MaxKey());
}

TEST(EquiHeightTest, BucketsHoldEqualCounts) {
  auto tuples = SortedTuples(64000, 4, 1u << 30);
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const uint32_t k = 8;
  const auto histogram = BuildEquiHeightHistogram(run, k);
  // Count tuples <= each bound: must be ~ (j+1)*n/k.
  for (uint32_t j = 0; j < k; ++j) {
    const auto count = std::upper_bound(
                           tuples.begin(), tuples.end(),
                           Tuple{histogram.bounds[j], 0}, TupleKeyLess{}) -
                       tuples.begin();
    EXPECT_NEAR(static_cast<double>(count),
                static_cast<double>(run.size) * (j + 1) / k,
                static_cast<double>(run.size) * 0.02);
  }
}

TEST(EquiHeightTest, EmptyRun) {
  ::mpsm::Run run{nullptr, 0, 0};
  const auto histogram = BuildEquiHeightHistogram(run, 4);
  EXPECT_TRUE(histogram.bounds.empty());
  EXPECT_EQ(histogram.run_size, 0u);
}

TEST(CdfTest, TotalAndMonotonicity) {
  std::vector<EquiHeightHistogram> locals;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto tuples = SortedTuples(5000 + 100 * seed, seed, 1 << 16);
    ::mpsm::Run run{tuples.data(), tuples.size(), 0};
    locals.push_back(BuildEquiHeightHistogram(run, 12));
  }
  const Cdf cdf = Cdf::FromHistograms(locals);
  EXPECT_EQ(cdf.total(), 5000u + 5100 + 5200 + 5300);

  double previous = -1;
  for (uint64_t key = 0; key < (1 << 16); key += 997) {
    const double rank = cdf.EstimateRank(key);
    EXPECT_GE(rank, previous);
    EXPECT_GE(rank, 0.0);
    EXPECT_LE(rank, static_cast<double>(cdf.total()));
    previous = rank;
  }
  EXPECT_DOUBLE_EQ(cdf.EstimateRank(1 << 16), cdf.total());
}

TEST(CdfTest, EstimatesTrueRankOnUniformData) {
  auto tuples = SortedTuples(100000, 9, 1u << 24);
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const Cdf cdf =
      Cdf::FromHistograms({BuildEquiHeightHistogram(run, 64)});
  for (uint64_t key = 0; key < (1u << 24); key += (1u << 20) + 7777) {
    const auto true_rank =
        std::upper_bound(tuples.begin(), tuples.end(), Tuple{key, 0},
                         TupleKeyLess{}) -
        tuples.begin();
    EXPECT_NEAR(cdf.EstimateRank(key), static_cast<double>(true_rank),
                0.03 * static_cast<double>(run.size));
  }
}

TEST(CdfTest, SkewedDataStillAccurate) {
  // Figure 8 scenario: mostly small keys.
  Xoshiro256 rng(12);
  std::vector<Tuple> tuples(50000);
  for (auto& t : tuples) {
    t = Tuple{rng.NextDouble() < 0.8 ? rng.NextBounded(1000)
                                     : rng.NextBounded(100000),
              0};
  }
  sort::RadixIntroSort(tuples.data(), tuples.size());
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const Cdf cdf =
      Cdf::FromHistograms({BuildEquiHeightHistogram(run, 128)});
  for (uint64_t key : {10u, 100u, 500u, 999u, 5000u, 50000u, 99999u}) {
    const auto true_rank =
        std::upper_bound(tuples.begin(), tuples.end(), Tuple{key, 0},
                         TupleKeyLess{}) -
        tuples.begin();
    EXPECT_NEAR(cdf.EstimateRank(key), static_cast<double>(true_rank),
                0.03 * static_cast<double>(run.size))
        << "key " << key;
  }
}

TEST(CdfTest, EstimateRangeSplitsRank) {
  auto tuples = SortedTuples(20000, 21, 1 << 20);
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const Cdf cdf =
      Cdf::FromHistograms({BuildEquiHeightHistogram(run, 32)});
  const double total = cdf.EstimateRange(0, uint64_t{1} << 21);
  EXPECT_NEAR(total, static_cast<double>(run.size), 1.0);
  const double left = cdf.EstimateRange(0, 1 << 19);
  const double right = cdf.EstimateRange(1 << 19, uint64_t{1} << 21);
  EXPECT_NEAR(left + right, total, 1.0);
  EXPECT_EQ(cdf.EstimateRange(500, 500), 0.0);
}

TEST(CdfTest, EmptyHistogramsYieldZero) {
  const Cdf cdf = Cdf::FromHistograms({});
  EXPECT_EQ(cdf.total(), 0u);
  EXPECT_EQ(cdf.EstimateRank(123), 0.0);
}

// ---------------------------------------------------------- splitters

TEST(SplittersTest, UniformHistogramSplitsEvenly) {
  RadixHistogram hist(64, 100);  // 6400 tuples, uniform
  const auto splitters =
      ComputeSplitters(hist, {}, 4, MakeEquiHeightRCost());
  ASSERT_EQ(splitters.cluster_to_partition.size(), 64u);
  EXPECT_TRUE(std::is_sorted(splitters.cluster_to_partition.begin(),
                             splitters.cluster_to_partition.end()));
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(splitters.partition_r_sizes[p], 1600u);
  }
}

TEST(SplittersTest, SkewedHistogramBalancesCardinality) {
  // One hot cluster amid a cold tail.
  RadixHistogram hist(128, 10);
  hist[3] = 5000;
  const auto splitters =
      ComputeSplitters(hist, {}, 4, MakeEquiHeightRCost());
  const uint64_t max_size = *std::max_element(
      splitters.partition_r_sizes.begin(), splitters.partition_r_sizes.end());
  // The hot cluster is indivisible; optimum bottleneck == its partition.
  EXPECT_LE(max_size, 5000u + 10 * 128);
  EXPECT_GE(max_size, 5000u);
}

TEST(SplittersTest, CostBalancedUsesSEstimates) {
  // R uniform but S concentrated in the low clusters: cost-balanced
  // splitters must make low-key partitions narrower in R terms... i.e.
  // the high-S partitions get fewer R clusters than a pure R split.
  const uint32_t clusters = 64;
  RadixHistogram r_hist(clusters, 100);
  std::vector<double> s_est(clusters, 10.0);
  for (uint32_t c = 0; c < 8; ++c) s_est[c] = 10000.0;

  const uint32_t team = 4;
  const auto balanced =
      ComputeSplitters(r_hist, s_est, team, MakePMpsmCost(team));
  const auto equi_r =
      ComputeSplitters(r_hist, {}, team, MakeEquiHeightRCost());

  auto bottleneck = [&](const Splitters& sp) {
    double worst = 0;
    const auto cost = MakePMpsmCost(team);
    std::vector<uint64_t> r(team, 0);
    std::vector<double> s(team, 0);
    for (uint32_t c = 0; c < clusters; ++c) {
      r[sp.cluster_to_partition[c]] += r_hist[c];
      s[sp.cluster_to_partition[c]] += s_est[c];
    }
    for (uint32_t p = 0; p < team; ++p) worst = std::max(worst, cost(r[p], s[p]));
    return worst;
  };
  EXPECT_LE(bottleneck(balanced), bottleneck(equi_r));
  // With this skew the cost-balanced split is strictly better.
  EXPECT_LT(bottleneck(balanced), 0.999 * bottleneck(equi_r));
}

TEST(SplittersTest, NeverExceedsPartitionBudget) {
  Xoshiro256 rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t clusters = 1u << (3 + rng.NextBounded(6));
    const uint32_t team = 1 + static_cast<uint32_t>(rng.NextBounded(16));
    RadixHistogram hist(clusters);
    for (auto& h : hist) h = rng.NextBounded(1000);
    const auto splitters =
        ComputeSplitters(hist, {}, team, MakePMpsmCost(team));
    for (uint32_t c = 0; c < clusters; ++c) {
      EXPECT_LT(splitters.cluster_to_partition[c], team);
    }
    EXPECT_TRUE(std::is_sorted(splitters.cluster_to_partition.begin(),
                               splitters.cluster_to_partition.end()));
    // All tuples accounted for.
    EXPECT_EQ(std::accumulate(splitters.partition_r_sizes.begin(),
                              splitters.partition_r_sizes.end(),
                              uint64_t{0}),
              HistogramTotal(hist));
  }
}

TEST(SplittersTest, FinerHistogramsNeverWorsenBalance) {
  // Figure 9's point: higher B gives the splitter more freedom, so the
  // achieved bottleneck cost is non-increasing in B.
  Xoshiro256 rng(7);
  std::vector<uint64_t> keys(20000);
  for (auto& k : keys) {
    k = rng.NextDouble() < 0.8 ? rng.NextBounded(1 << 14)
                               : rng.NextBounded(1 << 26);
  }
  const uint32_t team = 8;
  double previous_bottleneck = 1e300;
  for (uint32_t bits = 3; bits <= 11; ++bits) {
    KeyNormalizer norm(0, (1 << 26) - 1, bits);
    RadixHistogram hist(norm.num_clusters(), 0);
    for (uint64_t k : keys) ++hist[norm.Cluster(k)];
    const auto splitters =
        ComputeSplitters(hist, {}, team, MakePMpsmCost(team));
    const double bottleneck = *std::max_element(
        splitters.partition_costs.begin(), splitters.partition_costs.end());
    EXPECT_LE(bottleneck, previous_bottleneck * 1.0001);
    previous_bottleneck = bottleneck;
  }
}

TEST(SplittersTest, SinglePartitionTakesEverything) {
  RadixHistogram hist = {5, 10, 0, 3};
  const auto splitters = ComputeSplitters(hist, {}, 1, MakePMpsmCost(1));
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(splitters.cluster_to_partition[c], 0u);
  }
  EXPECT_EQ(splitters.partition_r_sizes[0], 18u);
}

TEST(SplittersTest, EmptyHistogram) {
  const auto splitters = ComputeSplitters({}, {}, 4, MakePMpsmCost(4));
  EXPECT_TRUE(splitters.cluster_to_partition.empty());
  EXPECT_EQ(splitters.num_partitions, 4u);
}

TEST(EstimateClusterSTest, SumsToTotal) {
  auto tuples = SortedTuples(30000, 3, 1 << 22);
  ::mpsm::Run run{tuples.data(), tuples.size(), 0};
  const Cdf cdf =
      Cdf::FromHistograms({BuildEquiHeightHistogram(run, 64)});
  KeyNormalizer norm(0, (1 << 22) - 1, 8);
  const auto estimates = EstimateClusterS(norm, cdf);
  const double sum =
      std::accumulate(estimates.begin(), estimates.end(), 0.0);
  EXPECT_NEAR(sum, static_cast<double>(cdf.total()),
              0.02 * static_cast<double>(cdf.total()));
}

}  // namespace
}  // namespace mpsm

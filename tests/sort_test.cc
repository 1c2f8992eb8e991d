// The paper's Radix/IntroSort (§2.3): correctness across sizes and
// distributions, phase components, and structural properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <tuple>
#include <vector>

#include "core/run_generation.h"
#include "numa/arena.h"
#include "simd/caps.h"
#include "sort/radix_introsort.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm::sort {
namespace {

enum class Dist {
  kUniform,
  kSorted,
  kReverse,
  kAllEqual,
  kFewDistinct,
  kSkewLow,
  kOrganPipe,
  kHighBitsOnly,
  kFullRange64,
  kKey21,
};

const char* DistName(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kSorted: return "sorted";
    case Dist::kReverse: return "reverse";
    case Dist::kAllEqual: return "allequal";
    case Dist::kFewDistinct: return "fewdistinct";
    case Dist::kSkewLow: return "skewlow";
    case Dist::kOrganPipe: return "organpipe";
    case Dist::kHighBitsOnly: return "highbits";
    case Dist::kFullRange64: return "full64";
    case Dist::kKey21: return "key21";
  }
  return "?";
}

constexpr uint64_t kKey21Max = (uint64_t{1} << 21) + 5;

// The default LSD bound: buckets of at most this many tuples are
// LSD-sorted whole, larger ones split by another MSD pass first.
const size_t kBound = RadixSortConfig{}.repartition_threshold;

std::vector<Tuple> MakeData(Dist dist, size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> data(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    switch (dist) {
      case Dist::kUniform:
        key = rng.NextBounded(uint64_t{1} << 32);
        break;
      case Dist::kSorted:
        key = i;
        break;
      case Dist::kReverse:
        key = n - i;
        break;
      case Dist::kAllEqual:
        key = 42;
        break;
      case Dist::kFewDistinct:
        key = rng.NextBounded(7);
        break;
      case Dist::kSkewLow:
        key = rng.NextDouble() < 0.9 ? rng.NextBounded(100)
                                     : rng.NextBounded(uint64_t{1} << 30);
        break;
      case Dist::kOrganPipe:
        key = i < n / 2 ? i : n - i;
        break;
      case Dist::kHighBitsOnly:
        // Only the top byte varies: stresses the radix pass.
        key = rng.NextBounded(256) << 56;
        break;
      case Dist::kFullRange64:
        key = rng.Next();
        break;
      case Dist::kKey21:
        // Max key 2^21 + 5: 22 used bits, so neither the whole key nor
        // the bits below the first radix digit fill whole bytes.
        key = i == 0 ? kKey21Max : rng.NextBounded(kKey21Max + 1);
        break;
    }
    data[i] = Tuple{key, i};  // payload records original position
  }
  return data;
}

// Checks that `sorted` is a key-sorted permutation of `original`.
void ExpectSortedPermutation(const std::vector<Tuple>& original,
                             std::vector<Tuple> sorted) {
  ASSERT_EQ(original.size(), sorted.size());
  EXPECT_TRUE(IsSortedByKey(sorted.data(), sorted.size()));
  // Permutation check via payloads (each payload unique in MakeData).
  auto expected = original;
  auto full_less = [](const Tuple& a, const Tuple& b) {
    return std::tie(a.key, a.payload) < std::tie(b.key, b.payload);
  };
  std::sort(expected.begin(), expected.end(), full_less);
  std::sort(sorted.begin(), sorted.end(), full_less);
  EXPECT_EQ(expected, sorted);
}

class RadixIntroSortTest
    : public testing::TestWithParam<std::tuple<Dist, size_t>> {};

TEST_P(RadixIntroSortTest, SortsCorrectly) {
  const auto [dist, n] = GetParam();
  const auto original = MakeData(dist, n, 17 + n);
  auto data = original;
  RadixIntroSort(data.data(), data.size());
  ExpectSortedPermutation(original, data);
}

TEST_P(RadixIntroSortTest, IntroSortAloneSortsCorrectly) {
  const auto [dist, n] = GetParam();
  const auto original = MakeData(dist, n, 31 + n);
  auto data = original;
  IntroSort(data.data(), data.size());
  ExpectSortedPermutation(original, data);
}

TEST_P(RadixIntroSortTest, MultiPassSortsCorrectly) {
  const auto [dist, n] = GetParam();
  const auto original = MakeData(dist, n, 47 + n);
  auto data = original;
  SortTuples(data.data(), data.size());
  ExpectSortedPermutation(original, data);
}

TEST_P(RadixIntroSortTest, MultiPassDeepRecursionSortsCorrectly) {
  // Tiny threshold + generous pass budget drives the recursion to its
  // maximum depth (shift 0 / all passes) on every distribution.
  const auto [dist, n] = GetParam();
  const auto original = MakeData(dist, n, 53 + n);
  auto data = original;
  RadixSortConfig config;
  config.repartition_threshold = 1;
  config.max_passes = 8;
  SortTuples(data.data(), data.size(), config);
  ExpectSortedPermutation(original, data);
}

TEST_P(RadixIntroSortTest, MultiPassSinglePassConfigSortsCorrectly) {
  // max_passes = 1 degenerates to the paper's single-pass pipeline.
  const auto [dist, n] = GetParam();
  const auto original = MakeData(dist, n, 59 + n);
  auto data = original;
  RadixSortConfig config;
  config.max_passes = 1;
  SortTuples(data.data(), data.size(), config);
  ExpectSortedPermutation(original, data);
}

TEST_P(RadixIntroSortTest, SortTuplesDispatchesAllKinds) {
  // The run sort's two shapes: the paper's single MSD pass
  // (max_passes = 1) and the multi-pass default.
  const auto [dist, n] = GetParam();
  for (uint32_t max_passes : {1u, 4u}) {
    const auto original = MakeData(dist, n, 61 + n);
    auto data = original;
    RadixSortConfig config;
    config.max_passes = max_passes;
    SortTuples(data.data(), data.size(), config);
    ExpectSortedPermutation(original, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixIntroSortTest,
    testing::Combine(testing::Values(Dist::kUniform, Dist::kSorted,
                                     Dist::kReverse, Dist::kAllEqual,
                                     Dist::kFewDistinct, Dist::kSkewLow,
                                     Dist::kOrganPipe, Dist::kHighBitsOnly,
                                     Dist::kFullRange64, Dist::kKey21),
                     // Up to 65536: whole inputs under the LSD bound;
                     // RunSortKindTest takes kBound - 1, kBound and
                     // kBound + 1.
                     testing::Values<size_t>(0, 1, 2, 15, 16, 17, 100, 1000,
                                             32768, 32769, 65536)),
    [](const testing::TestParamInfo<std::tuple<Dist, size_t>>& info) {
      return std::string(DistName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------------- components

TEST(InsertionSortTest, SortsSmallArrays) {
  for (size_t n : {0u, 1u, 2u, 5u, 16u, 40u}) {
    auto original = MakeData(Dist::kUniform, n, n);
    auto data = original;
    InsertionSort(data.data(), n);
    ExpectSortedPermutation(original, data);
  }
}

TEST(HeapSortTest, SortsAllDistributions) {
  for (Dist d : {Dist::kUniform, Dist::kReverse, Dist::kAllEqual,
                 Dist::kFewDistinct}) {
    auto original = MakeData(d, 2000, 5);
    auto data = original;
    HeapSort(data.data(), data.size());
    ExpectSortedPermutation(original, data);
  }
}

TEST(MsdRadixPartitionTest, BucketsArePureAndBoundsTight) {
  auto data = MakeData(Dist::kUniform, 50000, 3);
  const uint32_t shift = RadixShiftForMaxKey(uint64_t{1} << 32);
  const auto bounds = MsdRadixPartition(data.data(), data.size(), shift);

  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[kRadixBuckets], data.size());
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    EXPECT_LE(bounds[b], bounds[b + 1]);
    for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      EXPECT_EQ((data[i].key >> shift) & 0xFF, b);
    }
  }
}

TEST(MsdRadixPartitionTest, IsPermutation) {
  const auto original = MakeData(Dist::kUniform, 10000, 11);
  auto data = original;
  MsdRadixPartition(data.data(), data.size(),
                    RadixShiftForMaxKey(uint64_t{1} << 32));
  auto a = original;
  auto b = data;
  auto full_less = [](const Tuple& x, const Tuple& y) {
    return std::tie(x.key, x.payload) < std::tie(y.key, y.payload);
  };
  std::sort(a.begin(), a.end(), full_less);
  std::sort(b.begin(), b.end(), full_less);
  EXPECT_EQ(a, b);
}

TEST(MsdRadixPartitionTest, PartitionOrderMatchesKeyOrder) {
  // After the MSD pass, bucket b's keys all precede bucket b+1's keys
  // (the property that makes bucket-local introsort sufficient).
  auto data = MakeData(Dist::kUniform, 20000, 13);
  uint64_t max_key = 0;
  for (const auto& t : data) max_key = std::max(max_key, t.key);
  const uint32_t shift = RadixShiftForMaxKey(max_key);
  const auto bounds = MsdRadixPartition(data.data(), data.size(), shift);
  uint64_t previous_max = 0;
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      EXPECT_GE(data[i].key >> shift, previous_max >> shift);
    }
    if (bounds[b + 1] > bounds[b]) {
      previous_max = uint64_t{b} << shift;
    }
  }
}

TEST(MsdRadixPartitionTest, CopyMatchesInPlaceIntoUnalignedDestination) {
  // A destination one tuple past the allocation start puts bucket
  // starts off cache-line boundaries, so the write-combining scatter
  // runs its head fix-up. Sentinels on both sides catch stray writes.
  const size_t n = 50000;
  const auto src = MakeData(Dist::kUniform, n, 19);
  const Tuple sentinel{~0ull, ~0ull};
  std::vector<Tuple> buffer(n + 2, sentinel);
  uint32_t shift = 0;
  const auto bounds =
      MsdRadixPartitionCopy(src.data(), n, buffer.data() + 1, &shift);
  // 50000 keys below 2^32: the largest has all 32 bits.
  EXPECT_EQ(shift, 24u);
  auto in_place = src;
  const auto expected = MsdRadixPartition(in_place.data(), n, shift);
  EXPECT_EQ(bounds, expected);
  EXPECT_EQ(buffer.front(), sentinel);
  EXPECT_EQ(buffer.back(), sentinel);
  auto full_less = [](const Tuple& x, const Tuple& y) {
    return std::tie(x.key, x.payload) < std::tie(y.key, y.payload);
  };
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    std::vector<Tuple> copied(buffer.begin() + 1 + bounds[b],
                              buffer.begin() + 1 + bounds[b + 1]);
    std::vector<Tuple> permuted(in_place.begin() + expected[b],
                                in_place.begin() + expected[b + 1]);
    std::sort(copied.begin(), copied.end(), full_less);
    std::sort(permuted.begin(), permuted.end(), full_less);
    ASSERT_EQ(copied, permuted) << "bucket " << b;
  }
}

TEST(RadixShiftTest, SelectsTopEightSignificantBits) {
  EXPECT_EQ(RadixShiftForMaxKey(0), 0u);
  EXPECT_EQ(RadixShiftForMaxKey(255), 0u);
  EXPECT_EQ(RadixShiftForMaxKey(256), 1u);
  EXPECT_EQ(RadixShiftForMaxKey((uint64_t{1} << 32) - 1), 24u);
  EXPECT_EQ(RadixShiftForMaxKey(~uint64_t{0}), 56u);
}

TEST(RadixIntroSortMultiPassTest, RepartitionsHotBuckets) {
  // 2^17 tuples on a 32-bit domain leave each first-pass bucket with
  // ~512 tuples; a threshold of 64 forces the second pass everywhere.
  // With max_passes = 1 every bucket stays above the threshold when
  // the passes run out, so each one is introsorted.
  const size_t n = 1 << 17;
  const auto original = MakeData(Dist::kUniform, n, 71);
  for (uint32_t max_passes : {4u, 1u}) {
    auto data = original;
    RadixSortConfig config;
    config.repartition_threshold = 64;
    config.max_passes = max_passes;
    SortTuples(data.data(), data.size(), config);
    ExpectSortedPermutation(original, data);
  }
}

TEST(RadixIntroSortMultiPassTest, AllEqualKeysTerminate) {
  // A bucket of equal keys can never shrink by re-partitioning; the
  // pass cap (and the shift-0 stop) must end the recursion.
  auto original = MakeData(Dist::kAllEqual, 100000, 73);
  auto data = original;
  RadixSortConfig config;
  config.repartition_threshold = 16;
  config.max_passes = 8;
  SortTuples(data.data(), data.size(), config);
  ExpectSortedPermutation(original, data);
}

TEST(SortCopyIntoTest, MatchesCopyThenSortAcrossKindsAndLocality) {
  // The fused copy+first-pass must equal memcpy + SortTuples for every
  // pass budget, for both the local (3-sweep fused scatter) and remote
  // (single-sweep copy, in-place pass) source paths, across sizes that
  // cover the tiny-input fallback and the multi-pass recursion.
  for (Dist dist : {Dist::kUniform, Dist::kAllEqual, Dist::kFewDistinct,
                    Dist::kFullRange64, Dist::kKey21}) {
    for (size_t n : {size_t{0}, size_t{100}, size_t{5000}, size_t{80000}}) {
      const auto src = MakeData(dist, n, 77);
      auto expected = src;
      std::sort(expected.begin(), expected.end(), TupleKeyLess{});
      for (uint32_t max_passes : {1u, 4u}) {
        RadixSortConfig config;
        config.max_passes = max_passes;
        for (bool src_is_local : {true, false}) {
          std::vector<Tuple> dst(n, Tuple{~0ull, ~0ull});
          SortCopyInto(src.data(), n, dst.data(), config, src_is_local);
          ASSERT_TRUE(IsSortedByKey(dst.data(), n))
              << DistName(dist) << " n=" << n << " passes=" << max_passes
              << (src_is_local ? " local" : " remote");
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(dst[i].key, expected[i].key) << i;
          }
        }
      }
    }
  }
}

TEST(SortCopyIntoTest, ConcurrentSortsWithDifferentBucketSizes) {
  // Two threads sort at once, a 2^17-tuple input LSD-sorted whole
  // against buckets of ~4096 tuples: each thread's LSD scratch must be
  // its own and grow to what that thread sorts.
  const auto small = MakeData(Dist::kUniform, size_t{1} << 17, 83);
  const auto large = MakeData(Dist::kUniform, size_t{1} << 20, 89);
  auto check = [](const std::vector<Tuple>& src, std::vector<Tuple>* dst,
                  bool* ok) {
    auto expected = src;
    std::sort(expected.begin(), expected.end(), TupleKeyLess{});
    *ok = true;
    for (int round = 0; round < 3; ++round) {
      SortCopyInto(src.data(), src.size(), dst->data());
      auto in_place = src;
      SortTuples(in_place.data(), in_place.size());
      for (size_t i = 0; i < src.size(); ++i) {
        *ok = *ok && (*dst)[i].key == expected[i].key &&
              in_place[i].key == expected[i].key;
      }
    }
  };
  std::vector<Tuple> small_dst(small.size());
  std::vector<Tuple> large_dst(large.size());
  bool small_ok = false;
  bool large_ok = false;
  std::thread a(check, std::cref(small), &small_dst, &small_ok);
  std::thread b(check, std::cref(large), &large_dst, &large_ok);
  a.join();
  b.join();
  EXPECT_TRUE(small_ok);
  EXPECT_TRUE(large_ok);
}

// SortKeyRange on n keys drawn from [low, low + 2^bits), both ends
// included once n >= 2: the range comes out sorted, as a permutation of
// its input, and the sentinel tuples on either side stay untouched.
void ExpectKeyRangeSorts(uint64_t low, uint32_t bits, size_t n,
                         bool all_equal) {
  const uint64_t mask = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  const Tuple sentinel{0x5E5E5E5E, 0xA5A5};
  std::vector<Tuple> buffer(n + 2, sentinel);
  Xoshiro256 rng(n * 131 + bits);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t offset = all_equal ? mask / 3 : rng.Next() & mask;
    buffer[i + 1] = Tuple{low + offset, i};
  }
  if (n >= 2 && !all_equal) {
    buffer[1].key = low + mask;
    buffer[n].key = low;
  }
  const std::vector<Tuple> original(buffer.begin() + 1, buffer.end() - 1);
  SortKeyRange(buffer.data() + 1, n, low, bits);
  EXPECT_EQ(buffer.front(), sentinel);
  EXPECT_EQ(buffer.back(), sentinel);
  SCOPED_TRACE(testing::Message() << "low=" << low << " bits=" << bits
                                  << " n=" << n);
  ExpectSortedPermutation(
      original, std::vector<Tuple>(buffer.begin() + 1, buffer.end() - 1));
}

// Sizes on both sides of the insertion cutoff (64) and of the LSD
// bound; widths from one key to the full 64 bits; ranges at 0, at an
// unaligned low key and ending at UINT64_MAX.
TEST(SortKeyRangeTest, SortsEveryWidthSizeAndOffset) {
  for (const uint32_t bits : {0u, 1u, 8u, 9u, 21u, 64u}) {
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    for (const uint64_t low :
         {uint64_t{0}, (uint64_t{1} << 20) - 5, UINT64_MAX - mask}) {
      if (low > UINT64_MAX - mask) continue;  // range would wrap
      for (const size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                             kBound, kBound + 1}) {
        ExpectKeyRangeSorts(low, bits, n, /*all_equal=*/false);
      }
    }
  }
}

TEST(SortKeyRangeTest, AllEqualKeys) {
  for (const size_t n : {size_t{65}, kBound, kBound + 1}) {
    ExpectKeyRangeSorts((uint64_t{1} << 20) - 5, 21, n, /*all_equal=*/true);
    ExpectKeyRangeSorts(UINT64_MAX, 0, n, /*all_equal=*/true);
  }
}

// ------------------------------------- the LSD bound, in every SimdKind

class RunSortKindTest : public testing::TestWithParam<simd::SimdKind> {
 protected:
  RadixSortConfig Config() const { return RadixSortConfig{.simd = GetParam()}; }
};

TEST_P(RunSortKindTest, WholeInputsAroundTheBound) {
  // At most kBound tuples: LSD passes over the whole input; one more:
  // an in-place MSD pass first.
  for (const size_t n : {kBound - 1, kBound, kBound + 1}) {
    const auto original = MakeData(Dist::kUniform, n, n);
    auto data = original;
    SortTuples(data.data(), n, Config());
    SCOPED_TRACE(testing::Message() << "n=" << n);
    ExpectSortedPermutation(original, data);
  }
}

TEST_P(RunSortKindTest, BucketsAroundTheBound) {
  // The top digit of 32-bit keys puts the m keys below 2^24 into
  // bucket 0 of the fused first pass; 4096 keys of at least 2^31 fill
  // buckets 128-255.
  for (const size_t m : {kBound - 1, kBound, kBound + 1}) {
    const size_t n = m + 4096;
    auto src = MakeData(Dist::kUniform, n, m);
    for (size_t i = 0; i < n; ++i) {
      src[i].key = i < m ? src[i].key >> 8
                         : (uint64_t{1} << 31) | (src[i].key >> 1);
    }
    std::vector<Tuple> dst(n);
    SortCopyInto(src.data(), n, dst.data(), Config());
    SCOPED_TRACE(testing::Message() << "bucket of " << m);
    ExpectSortedPermutation(src, dst);
  }
}

// Figure 16's S chunk, scaled so its 32 hot buckets hold about 39K
// tuples each: above the old 2^15 bound, under the current one.
std::vector<Tuple> SkewedChunk() {
  const size_t n = size_t{3} << 19;
  Xoshiro256 rng(5);
  std::vector<Tuple> chunk(n);
  for (size_t i = 0; i < n; ++i) {
    chunk[i] = Tuple{workload::DrawKey(workload::KeyDistribution::kSkewLowEnd,
                                       n * 5 / 2, rng),
                     i};
  }
  return chunk;
}

TEST_P(RunSortKindTest, SkewedChunkThroughSortCopyInto) {
  const auto chunk = SkewedChunk();
  std::vector<Tuple> run(chunk.size());
  SortCopyInto(chunk.data(), chunk.size(), run.data(), Config());
  ExpectSortedPermutation(chunk, run);
}

TEST_P(RunSortKindTest, SkewedChunkThroughTheStealingSplit) {
  // GenerateRunInto's fused copy + first pass, then the bucket sorts
  // in morsels of 2^14 tuples, as the stealing scheduler runs them.
  auto chunk_data = SkewedChunk();
  const Chunk chunk{chunk_data.data(), chunk_data.size(), 0};
  numa::Arena arena(0);
  PerfCounters counters;
  RunGenState state;
  state.Resize(1);
  const mpsm::Run run =
      GenerateRunInto(chunk, arena, 0, counters, Config(),
                      /*split_threshold=*/1, &state, /*task=*/0);
  ASSERT_EQ(state.split[0], 1);
  for (const Morsel& morsel : BucketSortMorsels(state, size_t{1} << 14)) {
    SortRunBuckets(run, state, morsel, Config(), counters);
  }
  ExpectSortedPermutation(chunk_data,
                          std::vector<Tuple>(run.data, run.data + run.size));
}

TEST_P(RunSortKindTest, FirstKeysMissTheShiftGuess) {
  // The first 1024 keys are below 2^8 and the last one is 2^40, so the
  // shift guessed from the first keys is 0 and the pass must count its
  // histogram again at shift 33.
  const size_t n = kBound + 4096;
  auto src = MakeData(Dist::kUniform, n, 97);
  for (size_t i = 0; i < 1024; ++i) src[i].key &= 0xFF;
  src[n - 1].key = uint64_t{1} << 40;

  std::vector<Tuple> partitioned(n);
  uint32_t shift = 0;
  const auto bounds = MsdRadixPartitionCopy(src.data(), n, partitioned.data(),
                                            &shift, GetParam());
  EXPECT_EQ(shift, 33u);
  auto in_place = src;
  EXPECT_EQ(bounds, MsdRadixPartition(in_place.data(), n, 33, GetParam()));

  std::vector<Tuple> run(n);
  SortCopyInto(src.data(), n, run.data(), Config());
  ExpectSortedPermutation(src, run);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RunSortKindTest, testing::ValuesIn(simd::SupportedKinds()),
    [](const testing::TestParamInfo<simd::SimdKind>& info) {
      return std::string(simd::SimdKindName(info.param));
    });

TEST(RadixSortConfigTest, ValidateRejectsThresholdsAbove32BitCounts) {
  RadixSortConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.repartition_threshold = UINT32_MAX;
  EXPECT_TRUE(config.Validate().ok());
  config.repartition_threshold = size_t{UINT32_MAX} + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.repartition_threshold = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(IsSortedByKeyTest, DetectsOrder) {
  std::vector<Tuple> sorted = {{1, 0}, {1, 9}, {2, 0}, {5, 0}};
  std::vector<Tuple> unsorted = {{1, 0}, {3, 0}, {2, 0}};
  EXPECT_TRUE(IsSortedByKey(sorted.data(), sorted.size()));
  EXPECT_FALSE(IsSortedByKey(unsorted.data(), unsorted.size()));
  EXPECT_TRUE(IsSortedByKey(nullptr, 0));
}

// Payload must travel with its key (16-byte tuple moves, not key-only).
TEST(RadixIntroSortTest, PayloadsStayAttached) {
  auto data = MakeData(Dist::kUniform, 5000, 23);
  std::vector<uint64_t> expected_payload_by_key(5000);
  // Make keys unique so the key->payload map is well defined.
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].key = (data[i].key << 13) | i;
  }
  auto original = data;
  RadixIntroSort(data.data(), data.size());
  for (const Tuple& t : data) {
    EXPECT_EQ(t.payload, original[t.key & 0x1FFF].payload);
  }
}

}  // namespace
}  // namespace mpsm::sort

// Core kernels: interpolation search, the merge-join kernel, the
// run-join driver, match bitmap, and consumers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/consumers.h"
#include "core/interpolation_search.h"
#include "core/merge_join.h"
#include "sort/radix_introsort.h"
#include "util/rng.h"

namespace mpsm {
namespace {

std::vector<Tuple> SortedKeys(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<Tuple> tuples;
  tuples.reserve(keys.size());
  for (uint64_t k : keys) tuples.push_back(Tuple{k, k * 2});
  return tuples;
}

// ------------------------------------------------------------ search

using SearchFn = size_t (*)(const Tuple*, size_t, uint64_t, SearchStats*);

// A search strategy and its name. gtest prints the parameter into the
// test's listed name; printing the name rather than the function
// pointer keeps that stable across builds and runs (ASLR).
struct SearchStrategy {
  const char* name;
  SearchFn fn;
};

void PrintTo(const SearchStrategy& strategy, std::ostream* os) {
  *os << strategy.name;
}

class LowerBoundTest : public testing::TestWithParam<SearchStrategy> {};

TEST_P(LowerBoundTest, MatchesStdLowerBound) {
  SearchFn search = GetParam().fn;
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint64_t> keys(rng.NextBounded(500));
    for (auto& k : keys) k = rng.NextBounded(10000);
    const auto tuples = SortedKeys(keys);
    for (int probe = 0; probe < 50; ++probe) {
      const uint64_t key = rng.NextBounded(11000);
      const size_t expected =
          std::lower_bound(tuples.begin(), tuples.end(), Tuple{key, 0},
                           TupleKeyLess{}) -
          tuples.begin();
      EXPECT_EQ(search(tuples.data(), tuples.size(), key, nullptr),
                expected);
    }
  }
}

TEST_P(LowerBoundTest, EdgeCases) {
  SearchFn search = GetParam().fn;
  EXPECT_EQ(search(nullptr, 0, 5, nullptr), 0u);

  const auto tuples = SortedKeys({10, 20, 20, 20, 30});
  EXPECT_EQ(search(tuples.data(), tuples.size(), 0, nullptr), 0u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 10, nullptr), 0u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 11, nullptr), 1u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 20, nullptr), 1u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 21, nullptr), 4u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 30, nullptr), 4u);
  EXPECT_EQ(search(tuples.data(), tuples.size(), 31, nullptr), 5u);

  const auto equal = SortedKeys(std::vector<uint64_t>(100, 7));
  EXPECT_EQ(search(equal.data(), equal.size(), 7, nullptr), 0u);
  EXPECT_EQ(search(equal.data(), equal.size(), 8, nullptr), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, LowerBoundTest,
    testing::Values(SearchStrategy{"interpolation", &InterpolationLowerBound},
                    SearchStrategy{"binary", &BinaryLowerBound},
                    SearchStrategy{"linear", &LinearLowerBound}),
    [](const testing::TestParamInfo<SearchStrategy>& info) {
      return std::string(info.param.name);
    });

TEST(InterpolationSearchTest, FewProbesOnUniformData) {
  Xoshiro256 rng(9);
  std::vector<uint64_t> keys(1u << 20);
  for (auto& k : keys) k = rng.NextBounded(uint64_t{1} << 32);
  const auto tuples = SortedKeys(std::move(keys));

  uint64_t interp_probes = 0, binary_probes = 0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.NextBounded(uint64_t{1} << 32);
    SearchStats si, sb;
    InterpolationLowerBound(tuples.data(), tuples.size(), key, &si);
    BinaryLowerBound(tuples.data(), tuples.size(), key, &sb);
    interp_probes += si.probes;
    binary_probes += sb.probes;
  }
  // O(log log n) vs O(log n): interpolation should need far fewer
  // probes on uniform keys (the §3.2.2 motivation).
  EXPECT_LT(interp_probes * 2, binary_probes);
}

TEST(InterpolationSearchTest, AdversarialDistributionStillLogarithmic) {
  // Exponentially spaced keys defeat interpolation's proportion rule;
  // the binary fallback must bound the probes.
  std::vector<uint64_t> keys;
  uint64_t k = 1;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(k);
    k *= 2;
  }
  const auto tuples = SortedKeys(std::move(keys));
  SearchStats stats;
  const size_t pos =
      InterpolationLowerBound(tuples.data(), tuples.size(), 3, &stats);
  EXPECT_EQ(pos, 2u);  // first key >= 3 is 4
  EXPECT_LT(stats.probes, 64u);
}

// ------------------------------------------------------ merge kernel

struct Pair {
  uint64_t r_payload;
  uint64_t s_payload;
  bool operator==(const Pair&) const = default;
  auto operator<=>(const Pair&) const = default;
};

std::vector<Pair> KernelJoin(const std::vector<Tuple>& r,
                             const std::vector<Tuple>& s) {
  std::vector<Pair> pairs;
  MergeJoinRunPair(r.data(), r.size(), s.data(), s.size(),
                   [&](size_t, const Tuple& rt, const Tuple* sg, size_t n) {
                     for (size_t i = 0; i < n; ++i) {
                       pairs.push_back(Pair{rt.payload, sg[i].payload});
                     }
                   });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<Pair> NestedLoopJoin(const std::vector<Tuple>& r,
                                 const std::vector<Tuple>& s) {
  std::vector<Pair> pairs;
  for (const auto& rt : r) {
    for (const auto& st : s) {
      if (rt.key == st.key) pairs.push_back(Pair{rt.payload, st.payload});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(MergeJoinKernelTest, MatchesNestedLoopOnRandomInputs) {
  Xoshiro256 rng(15);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Tuple> r(rng.NextBounded(200)), s(rng.NextBounded(200));
    uint64_t payload = 0;
    for (auto& t : r) t = Tuple{rng.NextBounded(40), payload++};
    for (auto& t : s) t = Tuple{rng.NextBounded(40), payload++};
    sort::RadixIntroSort(r.data(), r.size());
    sort::RadixIntroSort(s.data(), s.size());
    EXPECT_EQ(KernelJoin(r, s), NestedLoopJoin(r, s)) << "trial " << trial;
  }
}

TEST(MergeJoinKernelTest, DuplicateGroupsOnBothSides) {
  const auto r = SortedKeys({1, 1, 1, 2, 3, 3});
  const auto s = SortedKeys({1, 1, 3, 3, 3, 4});
  const auto pairs = KernelJoin(r, s);
  // key 1: 3 x 2 = 6 pairs; key 3: 2 x 3 = 6 pairs.
  EXPECT_EQ(pairs.size(), 12u);
}

TEST(MergeJoinKernelTest, ScanPositionsReported) {
  const auto r = SortedKeys({5, 6, 7});
  const auto s = SortedKeys({1, 2, 3, 6, 9});
  const auto scan = MergeJoinRunPair(r.data(), r.size(), s.data(), s.size(),
                                     [](size_t, const Tuple&, const Tuple*,
                                        size_t) {});
  EXPECT_EQ(scan.matches, 1u);
  EXPECT_LE(scan.r_end, r.size());
  EXPECT_LE(scan.s_end, s.size());
  EXPECT_GE(scan.s_end, 4u);  // consumed up to and including key 6
}

TEST(MergeJoinKernelTest, DisjointRangesTerminateEarly) {
  const auto r = SortedKeys({1, 2, 3});
  const auto s = SortedKeys({100, 200});
  const auto scan = MergeJoinRunPair(r.data(), r.size(), s.data(), s.size(),
                                     [](size_t, const Tuple&, const Tuple*,
                                        size_t) { FAIL(); });
  EXPECT_EQ(scan.matches, 0u);
  EXPECT_EQ(scan.s_end, 0u);  // never advanced past the first s key
}

TEST(MergeJoinKernelTest, PrefetchVariantIsEquivalent) {
  // The pipelined kernel must produce the same pairs, scan positions,
  // and match counts as the scalar kernel for every input shape,
  // including runs shorter than the prefetch distance.
  Xoshiro256 rng(27);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Tuple> r(rng.NextBounded(300)), s(rng.NextBounded(300));
    uint64_t payload = 0;
    for (auto& t : r) t = Tuple{rng.NextBounded(50), payload++};
    for (auto& t : s) t = Tuple{rng.NextBounded(50), payload++};
    sort::RadixIntroSort(r.data(), r.size());
    sort::RadixIntroSort(s.data(), s.size());

    std::vector<Pair> scalar_pairs, prefetch_pairs;
    const auto scalar_scan = MergeJoinRunPair(
        r.data(), r.size(), s.data(), s.size(),
        [&](size_t, const Tuple& rt, const Tuple* sg, size_t n) {
          for (size_t i = 0; i < n; ++i) {
            scalar_pairs.push_back(Pair{rt.payload, sg[i].payload});
          }
        });
    const auto prefetch_scan = MergeJoinRunPairPrefetch(
        r.data(), r.size(), s.data(), s.size(),
        [&](size_t, const Tuple& rt, const Tuple* sg, size_t n) {
          for (size_t i = 0; i < n; ++i) {
            prefetch_pairs.push_back(Pair{rt.payload, sg[i].payload});
          }
        });
    EXPECT_EQ(scalar_pairs, prefetch_pairs) << "trial " << trial;
    EXPECT_EQ(scalar_scan.matches, prefetch_scan.matches);
    EXPECT_EQ(scalar_scan.r_end, prefetch_scan.r_end);
    EXPECT_EQ(scalar_scan.s_end, prefetch_scan.s_end);
  }
}

TEST(MergeJoinKernelTest, EmptySides) {
  const auto r = SortedKeys({1, 2});
  auto scan = MergeJoinRunPair(r.data(), r.size(), nullptr, 0,
                               [](size_t, const Tuple&, const Tuple*,
                                  size_t) { FAIL(); });
  EXPECT_EQ(scan.matches, 0u);
  scan = MergeJoinRunPair(nullptr, 0, r.data(), r.size(),
                          [](size_t, const Tuple&, const Tuple*, size_t) {
                            FAIL();
                          });
  EXPECT_EQ(scan.matches, 0u);
}

// ------------------------------------------------------ match bitmap

TEST(MatchBitmapTest, SetAndGet) {
  MatchBitmap bitmap(200);
  EXPECT_EQ(bitmap.size(), 200u);
  for (size_t i = 0; i < 200; ++i) EXPECT_FALSE(bitmap.Get(i));
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(199);
  EXPECT_TRUE(bitmap.Get(0));
  EXPECT_TRUE(bitmap.Get(63));
  EXPECT_TRUE(bitmap.Get(64));
  EXPECT_TRUE(bitmap.Get(199));
  EXPECT_FALSE(bitmap.Get(1));
  EXPECT_FALSE(bitmap.Get(65));
}

// -------------------------------------------------- run-join driver

TEST(RunJoinDriverTest, JoinsAgainstAllRunsWithStagger) {
  // Private run joins partners spread over 3 public runs.
  auto ri_tuples = SortedKeys({10, 20, 30});
  ::mpsm::Run ri{ri_tuples.data(), ri_tuples.size(), 0};

  auto s0 = SortedKeys({10, 15});
  auto s1 = SortedKeys({20, 20});
  auto s2 = SortedKeys({5, 30});
  RunSet s_runs = {::mpsm::Run{s0.data(), s0.size(), 0},
                   ::mpsm::Run{s1.data(), s1.size(), 1},
                   ::mpsm::Run{s2.data(), s2.size(), 2}};

  for (uint32_t first : {0u, 1u, 2u}) {
    CountFactory counts(1);
    PerfCounters counters;
    const uint64_t output = JoinPrivateAgainstRuns(
        ri, s_runs, first, RunJoinOptions{}, counts.ConsumerForWorker(0), 0,
        &counters);
    EXPECT_EQ(output, 4u) << "first=" << first;  // 10, 20x2, 30
    EXPECT_EQ(counters.output_tuples, 4u);
  }
}

TEST(RunJoinDriverTest, CountsLocalVersusRemoteTraffic) {
  auto ri_tuples = SortedKeys({1, 2, 3, 4});
  ::mpsm::Run ri{ri_tuples.data(), ri_tuples.size(), /*node=*/0};
  auto s0 = SortedKeys({1, 2});
  auto s1 = SortedKeys({3, 4});
  RunSet s_runs = {::mpsm::Run{s0.data(), s0.size(), /*node=*/0},
                   ::mpsm::Run{s1.data(), s1.size(), /*node=*/1}};

  CountFactory counts(1);
  PerfCounters counters;
  JoinPrivateAgainstRuns(ri, s_runs, 0, RunJoinOptions{},
                         counts.ConsumerForWorker(0), /*worker_node=*/0,
                         &counters);
  EXPECT_GT(counters.bytes_read_local_seq, 0u);   // own run + local s0
  EXPECT_GT(counters.bytes_read_remote_seq, 0u);  // s1 on node 1
  EXPECT_EQ(counters.sync_acquisitions, 0u);      // commandment C3
}

TEST(RunJoinDriverTest, SemiEmitsEachPrivateTupleOnce) {
  // Key 7 appears in two public runs; semi join must not double-count.
  auto ri_tuples = SortedKeys({7, 8});
  ::mpsm::Run ri{ri_tuples.data(), ri_tuples.size(), 0};
  auto s0 = SortedKeys({7, 7});
  auto s1 = SortedKeys({7});
  RunSet s_runs = {::mpsm::Run{s0.data(), s0.size(), 0},
                   ::mpsm::Run{s1.data(), s1.size(), 0}};

  CountFactory counts(1);
  RunJoinOptions options;
  options.kind = JoinKind::kLeftSemi;
  const uint64_t output = JoinPrivateAgainstRuns(
      ri, s_runs, 0, options, counts.ConsumerForWorker(0), 0, nullptr);
  EXPECT_EQ(output, 1u);  // only key 7, once
}

TEST(RunJoinDriverTest, AntiAndOuterAcrossRuns) {
  auto ri_tuples = SortedKeys({1, 2, 3});
  ::mpsm::Run ri{ri_tuples.data(), ri_tuples.size(), 0};
  auto s0 = SortedKeys({1});
  auto s1 = SortedKeys({3, 3});
  RunSet s_runs = {::mpsm::Run{s0.data(), s0.size(), 0},
                   ::mpsm::Run{s1.data(), s1.size(), 0}};

  {
    CountFactory counts(1);
    RunJoinOptions options;
    options.kind = JoinKind::kLeftAnti;
    EXPECT_EQ(JoinPrivateAgainstRuns(ri, s_runs, 0, options,
                                     counts.ConsumerForWorker(0), 0,
                                     nullptr),
              1u);  // key 2 unmatched
  }
  {
    CountFactory counts(1);
    RunJoinOptions options;
    options.kind = JoinKind::kLeftOuter;
    EXPECT_EQ(JoinPrivateAgainstRuns(ri, s_runs, 0, options,
                                     counts.ConsumerForWorker(0), 0,
                                     nullptr),
              4u);  // 1 match + 2 matches for key 3 + 1 unmatched
  }
}

// --------------------------------------------------------- consumers

TEST(ConsumerTest, MaxPayloadSumPicksGroupMax) {
  MaxPayloadSumFactory factory(2);
  auto& c0 = factory.ConsumerForWorker(0);
  auto& c1 = factory.ConsumerForWorker(1);

  Tuple r{1, 100};
  std::vector<Tuple> group = {{1, 5}, {1, 50}, {1, 7}};
  c0.OnMatch(r, group.data(), group.size());
  Tuple r2{2, 10};
  Tuple s2{2, 30};
  c1.OnMatch(r2, &s2, 1);

  EXPECT_EQ(factory.Result().value_or(0), 150u);  // 100 + 50
}

TEST(ConsumerTest, MaxPayloadSumEmptyIsNullopt) {
  MaxPayloadSumFactory factory(3);
  EXPECT_FALSE(factory.Result().has_value());
}

TEST(ConsumerTest, MaxPayloadSumUnmatchedCountsRPayloadOnly) {
  MaxPayloadSumFactory factory(1);
  factory.ConsumerForWorker(0).OnUnmatchedR(Tuple{1, 77});
  EXPECT_EQ(factory.Result().value_or(0), 77u);
}

TEST(ConsumerTest, CountSumsAcrossWorkers) {
  CountFactory factory(2);
  Tuple r{1, 0};
  std::vector<Tuple> group = {{1, 0}, {1, 0}};
  factory.ConsumerForWorker(0).OnMatch(r, group.data(), 2);
  factory.ConsumerForWorker(1).OnMatch(r, group.data(), 1);
  factory.ConsumerForWorker(1).OnUnmatchedR(r);
  EXPECT_EQ(factory.Result(), 4u);
}

TEST(ConsumerTest, MaterializePreservesPerWorkerOrder) {
  MaterializeFactory factory(2);
  Tuple r{3, 30};
  std::vector<Tuple> group = {{3, 1}, {3, 2}};
  factory.ConsumerForWorker(1).OnMatch(r, group.data(), 2);
  factory.ConsumerForWorker(1).OnUnmatchedR(Tuple{9, 90});

  EXPECT_TRUE(factory.RowsOfWorker(0).empty());
  const auto& rows = factory.RowsOfWorker(1);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (OutputRow{3, 30, 1}));
  EXPECT_EQ(rows[1], (OutputRow{3, 30, 2}));
  EXPECT_EQ(rows[2], (OutputRow{9, 90, std::nullopt}));
  EXPECT_EQ(factory.AllRows().size(), 3u);
}

}  // namespace
}  // namespace mpsm

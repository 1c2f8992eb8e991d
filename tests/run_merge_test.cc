// Loser-tree multiway run merge (the §7 "exploit the rough sort order"
// extension).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/run_merge.h"
#include "sort/radix_introsort.h"
#include "util/rng.h"

namespace mpsm {
namespace {

std::vector<std::vector<Tuple>> MakeSortedRuns(uint32_t k, size_t max_size,
                                               uint64_t seed,
                                               uint64_t domain = 10000) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<Tuple>> storage(k);
  for (auto& run : storage) {
    run.resize(rng.NextBounded(max_size + 1));
    for (auto& t : run) t = Tuple{rng.NextBounded(domain), rng.Next() & 0xFF};
    sort::RadixIntroSort(run.data(), run.size());
  }
  return storage;
}

std::vector<Run> AsRuns(std::vector<std::vector<Tuple>>& storage) {
  std::vector<Run> runs;
  for (auto& s : storage) runs.push_back(Run{s.data(), s.size(), 0});
  return runs;
}

class LoserTreeTest : public testing::TestWithParam<uint32_t> {};

TEST_P(LoserTreeTest, ProducesGloballySortedPermutation) {
  const uint32_t k = GetParam();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto storage = MakeSortedRuns(k, 500, seed);
    const auto merged = MergeRuns(AsRuns(storage));

    std::vector<Tuple> expected;
    for (const auto& run : storage) {
      expected.insert(expected.end(), run.begin(), run.end());
    }
    ASSERT_EQ(merged.size(), expected.size());
    EXPECT_TRUE(sort::IsSortedByKey(merged.data(), merged.size()));

    auto full_less = [](const Tuple& a, const Tuple& b) {
      return a.key != b.key ? a.key < b.key : a.payload < b.payload;
    };
    auto got = merged;
    std::sort(got.begin(), got.end(), full_less);
    std::sort(expected.begin(), expected.end(), full_less);
    EXPECT_EQ(got, expected) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, LoserTreeTest,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 17u, 64u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(LoserTreeTest, AllRunsEmpty) {
  std::vector<std::vector<Tuple>> storage(4);
  LoserTreeMerger merger(AsRuns(storage));
  EXPECT_FALSE(merger.HasNext());
  EXPECT_EQ(merger.remaining(), 0u);
}

TEST(LoserTreeTest, NoRuns) {
  LoserTreeMerger merger({});
  EXPECT_FALSE(merger.HasNext());
}

TEST(LoserTreeTest, SingleRunPassesThrough) {
  std::vector<Tuple> run = {{1, 10}, {2, 20}, {2, 21}, {9, 90}};
  const auto merged = MergeRuns({::mpsm::Run{run.data(), run.size(), 0}});
  EXPECT_EQ(merged, run);
}

TEST(LoserTreeTest, SentinelKeyTuplesSurvive) {
  // Tuples with key UINT64_MAX collide with the exhaustion sentinel;
  // they must still all be emitted.
  std::vector<Tuple> a = {{5, 1}, {~uint64_t{0}, 2}};
  std::vector<Tuple> b = {{~uint64_t{0}, 3}};
  const auto merged = MergeRuns(
      {::mpsm::Run{a.data(), a.size(), 0}, ::mpsm::Run{b.data(), b.size(), 0}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 5u);
  EXPECT_EQ(merged[1].key, ~uint64_t{0});
  EXPECT_EQ(merged[2].key, ~uint64_t{0});
}

}  // namespace
}  // namespace mpsm

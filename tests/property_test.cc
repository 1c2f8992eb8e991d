// Randomized cross-algorithm property tests: for many seeds and
// workload shapes, all five join implementations (P-MPSM, B-MPSM,
// D-MPSM, Wisconsin, radix) must agree with each other and with the
// reference, and key invariants must hold.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/radix_join.h"
#include "baseline/reference_join.h"
#include "baseline/wisconsin_join.h"
#include "core/b_mpsm.h"
#include "core/consumers.h"
#include "core/p_mpsm.h"
#include "core/run_merge.h"
#include "sort/radix_introsort.h"
#include "disk/d_mpsm.h"
#include "numa/topology.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

using workload::DatasetSpec;
using workload::KeyDistribution;
using workload::SKeyMode;

class SeededPropertyTest : public testing::TestWithParam<uint64_t> {};

// Derives a pseudo-random workload shape from the seed.
DatasetSpec SpecFromSeed(uint64_t seed) {
  Xoshiro256 rng(seed * 7919 + 13);
  DatasetSpec spec;
  spec.r_tuples = 500 + rng.NextBounded(8000);
  spec.multiplicity = 0.25 * (1 + rng.NextBounded(12));
  spec.key_domain = 16 + rng.NextBounded(4 * spec.r_tuples);
  spec.r_distribution = static_cast<KeyDistribution>(rng.NextBounded(3));
  spec.s_distribution = static_cast<KeyDistribution>(rng.NextBounded(3));
  spec.s_mode =
      rng.NextBounded(2) ? SKeyMode::kForeignKey : SKeyMode::kIndependent;
  spec.seed = seed;
  return spec;
}

TEST_P(SeededPropertyTest, AllAlgorithmsAgreeOnCountAndMax) {
  const uint64_t seed = GetParam();
  const auto spec = SpecFromSeed(seed);
  const auto topology = numa::Topology::Simulated(2, 8);
  const uint32_t team_size = 1 + static_cast<uint32_t>(seed % 8);
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  CountFactory ref_count(1);
  const uint64_t expected_count =
      baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                              JoinKind::kInner,
                              ref_count.ConsumerForWorker(0));
  const uint64_t expected_max = baseline::ReferenceMaxPayloadSum(
      dataset.r.ToVector(), dataset.s.ToVector());

  auto check = [&](const char* name, auto&& execute) {
    CountFactory counts(team_size);
    MaxPayloadSumFactory agg(team_size);
    ASSERT_TRUE(execute(counts).ok()) << name;
    ASSERT_TRUE(execute(agg).ok()) << name;
    EXPECT_EQ(counts.Result(), expected_count)
        << name << " seed=" << seed << " t=" << team_size;
    EXPECT_EQ(agg.Result().value_or(0), expected_max)
        << name << " seed=" << seed;
  };

  check("p-mpsm", [&](ConsumerFactory& f) {
    return PMpsmJoin().Execute(team, dataset.r, dataset.s, f);
  });
  check("b-mpsm", [&](ConsumerFactory& f) {
    return BMpsmJoin().Execute(team, dataset.r, dataset.s, f);
  });
  check("d-mpsm", [&](ConsumerFactory& f) {
    disk::DMpsmOptions options;
    options.tuples_per_page = 128;
    options.pool_budget_bytes = 12 * disk::PageStore::PageBytes(128);
    return disk::DMpsmJoin(options).Execute(team, dataset.r, dataset.s, f);
  });
  check("wisconsin", [&](ConsumerFactory& f) {
    return baseline::WisconsinHashJoin().Execute(team, dataset.r, dataset.s,
                                                 f);
  });
  check("radix", [&](ConsumerFactory& f) {
    return baseline::RadixHashJoin().Execute(team, dataset.r, dataset.s, f);
  });
}

TEST_P(SeededPropertyTest, SemiPlusAntiEqualsR) {
  const uint64_t seed = GetParam();
  const auto spec = SpecFromSeed(seed ^ 0xABCD);
  const auto topology = numa::Topology::Simulated(2, 4);
  const uint32_t team_size = 1 + static_cast<uint32_t>(seed % 5);
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  auto count_kind = [&](JoinKind kind) {
    MpsmOptions options;
    options.kind = kind;
    CountFactory counts(team_size);
    EXPECT_TRUE(
        PMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts).ok());
    return counts.Result();
  };

  const uint64_t semi = count_kind(JoinKind::kLeftSemi);
  const uint64_t anti = count_kind(JoinKind::kLeftAnti);
  const uint64_t inner = count_kind(JoinKind::kInner);
  const uint64_t outer = count_kind(JoinKind::kLeftOuter);

  // Every R tuple either has a partner (semi) or not (anti).
  EXPECT_EQ(semi + anti, dataset.r.size());
  // Outer = inner matches + unmatched R.
  EXPECT_EQ(outer, inner + anti);
  // Semi can never exceed inner.
  EXPECT_LE(semi, inner);
}

TEST_P(SeededPropertyTest, ForeignKeyCountEqualsS) {
  // In FK mode every S tuple joins exactly the R tuples sharing its
  // key; when R keys are unique the inner count is exactly |S|.
  const uint64_t seed = GetParam();
  const auto topology = numa::Topology::Simulated(2, 4);
  const uint32_t team_size = 2 + static_cast<uint32_t>(seed % 4);

  // Build an R with unique keys directly.
  Xoshiro256 rng(seed);
  const size_t n = 2000 + rng.NextBounded(3000);
  Relation r = Relation::Allocate(topology, n, team_size);
  uint64_t key = 0;
  for (uint32_t c = 0; c < r.num_chunks(); ++c) {
    for (size_t i = 0; i < r.chunk(c).size; ++i) {
      key += 1 + rng.NextBounded(5);
      r.chunk(c).data[i] = Tuple{key, rng.Next() & 0xFFFF};
    }
  }
  // S: FK draws from R's keys.
  const size_t s_size = 3 * n;
  Relation s = Relation::Allocate(topology, s_size, team_size);
  std::vector<uint64_t> keys;
  for (uint32_t c = 0; c < r.num_chunks(); ++c) {
    for (size_t i = 0; i < r.chunk(c).size; ++i) {
      keys.push_back(r.chunk(c).data[i].key);
    }
  }
  for (uint32_t c = 0; c < s.num_chunks(); ++c) {
    for (size_t i = 0; i < s.chunk(c).size; ++i) {
      s.chunk(c).data[i] =
          Tuple{keys[rng.NextBounded(keys.size())], rng.Next() & 0xFFFF};
    }
  }

  WorkerTeam team(topology, team_size);
  CountFactory counts(team_size);
  ASSERT_TRUE(PMpsmJoin().Execute(team, r, s, counts).ok());
  EXPECT_EQ(counts.Result(), s_size);
}

TEST_P(SeededPropertyTest, DeterministicAcrossRepeats) {
  const uint64_t seed = GetParam();
  const auto spec = SpecFromSeed(seed ^ 0x1111);
  const auto topology = numa::Topology::Simulated(4, 4);
  const auto dataset = workload::Generate(topology, 4, spec);
  WorkerTeam team(topology, 4);

  uint64_t first = 0;
  for (int repeat = 0; repeat < 3; ++repeat) {
    MaxPayloadSumFactory agg(4);
    ASSERT_TRUE(PMpsmJoin().Execute(team, dataset.r, dataset.s, agg).ok());
    if (repeat == 0) {
      first = agg.Result().value_or(0);
    } else {
      EXPECT_EQ(agg.Result().value_or(0), first);
    }
  }
}

TEST_P(SeededPropertyTest, MergedWorkerOutputIsSorted) {
  // Property from §6: merging each worker's (at most T) output runs
  // with the loser tree yields that worker's partition fully sorted,
  // and partitions concatenate into a global sort order. The at-most-T
  // segment shape is a property of the paper's *static* script (one
  // merge pass per public run); the stealing scheduler range-slices
  // the merges, so pin kStatic here.
  const uint64_t seed = GetParam();
  const auto spec = SpecFromSeed(seed ^ 0x2222);
  const auto topology = numa::Topology::Simulated(2, 4);
  const uint32_t team_size = 4;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  MpsmOptions static_options;
  static_options.scheduler = SchedulerKind::kStatic;
  MaterializeFactory rows(team_size);
  ASSERT_TRUE(
      PMpsmJoin(static_options).Execute(team, dataset.r, dataset.s, rows).ok());

  uint64_t previous_partition_max = 0;
  bool any = false;
  for (uint32_t w = 0; w < team_size; ++w) {
    const auto& out = rows.RowsOfWorker(w);
    if (out.empty()) continue;
    // Split the worker's emission order into ascending segments, then
    // merge them; result must be sorted.
    std::vector<std::vector<Tuple>> segments(1);
    for (size_t i = 0; i < out.size(); ++i) {
      if (i > 0 && out[i].key < out[i - 1].key) segments.emplace_back();
      segments.back().push_back(
          Tuple{out[i].key, out[i].s_payload.value_or(0)});
    }
    EXPECT_LE(segments.size(), team_size) << "worker " << w;
    std::vector<::mpsm::Run> runs;
    for (auto& segment : segments) {
      runs.push_back(::mpsm::Run{segment.data(), segment.size(), 0});
    }
    const auto merged = MergeRuns(runs);
    EXPECT_TRUE(sort::IsSortedByKey(merged.data(), merged.size()));
    // Range-partitioned: this partition starts at or after the
    // previous partition's end.
    if (any) {
      EXPECT_GE(merged.front().key, previous_partition_max);
    }
    previous_partition_max = merged.back().key;
    any = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         testing::Range<uint64_t>(0, 12),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mpsm

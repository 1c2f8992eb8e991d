// End-to-end correctness: every parallel join algorithm must produce
// exactly the reference answer on randomized inputs across team sizes,
// multiplicities, distributions, and join kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "baseline/radix_join.h"
#include "baseline/reference_join.h"
#include "baseline/wisconsin_join.h"
#include "core/b_mpsm.h"
#include "core/consumers.h"
#include "core/p_mpsm.h"
#include "disk/d_mpsm.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "parallel/task_scheduler.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace mpsm {
namespace {

using workload::Algorithm;
using workload::Arrangement;
using workload::DatasetSpec;
using workload::KeyDistribution;
using workload::SKeyMode;

numa::Topology TestTopology() { return numa::Topology::Simulated(4, 16); }

struct JoinCase {
  Algorithm algorithm;
  uint32_t team_size;
  size_t r_tuples;
  double multiplicity;
  KeyDistribution r_dist;
  SKeyMode s_mode;
};

std::string CaseName(const testing::TestParamInfo<JoinCase>& info) {
  const JoinCase& c = info.param;
  std::string name = workload::AlgorithmName(c.algorithm);
  std::replace(name.begin(), name.end(), '-', '_');
  std::replace(name.begin(), name.end(), ' ', '_');
  std::replace(name.begin(), name.end(), '(', '_');
  std::replace(name.begin(), name.end(), ')', '_');
  name += "_t" + std::to_string(c.team_size);
  name += "_r" + std::to_string(c.r_tuples);
  name += "_m" + std::to_string(static_cast<int>(c.multiplicity * 10));
  switch (c.r_dist) {
    case KeyDistribution::kUniform:
      name += "_uni";
      break;
    case KeyDistribution::kSkewLowEnd:
      name += "_skewlo";
      break;
    case KeyDistribution::kSkewHighEnd:
      name += "_skewhi";
      break;
  }
  name += c.s_mode == SKeyMode::kForeignKey ? "_fk" : "_ind";
  return name;
}

class JoinCorrectnessTest : public testing::TestWithParam<JoinCase> {};

TEST_P(JoinCorrectnessTest, CountMatchesReference) {
  const JoinCase& c = GetParam();
  const auto topology = TestTopology();

  DatasetSpec spec;
  spec.r_tuples = c.r_tuples;
  spec.multiplicity = c.multiplicity;
  spec.key_domain = c.r_tuples * 4 + 16;  // force duplicates
  spec.r_distribution = c.r_dist;
  spec.s_mode = c.s_mode;
  spec.seed = 1234 + c.team_size;
  const auto dataset = workload::Generate(topology, c.team_size, spec);

  WorkerTeam team(topology, c.team_size);
  CountFactory counts(c.team_size);

  Result<JoinRunInfo> info = Status::Internal("unset");
  switch (c.algorithm) {
    case Algorithm::kPMpsm:
      info = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
      break;
    case Algorithm::kBMpsm:
      info = BMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
      break;
    case Algorithm::kDMpsm:
      info = disk::DMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
      break;
    case Algorithm::kWisconsin:
      info = baseline::WisconsinHashJoin().Execute(team, dataset.r,
                                                   dataset.s, counts);
      break;
    case Algorithm::kRadix:
      info = baseline::RadixHashJoin().Execute(team, dataset.r, dataset.s,
                                               counts);
      break;
  }
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  const uint64_t expected =
      baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                              JoinKind::kInner,
                              reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);
  EXPECT_EQ(info->output_tuples, expected);
}

TEST_P(JoinCorrectnessTest, MaxSumMatchesReference) {
  const JoinCase& c = GetParam();
  const auto topology = TestTopology();

  DatasetSpec spec;
  spec.r_tuples = c.r_tuples;
  spec.multiplicity = c.multiplicity;
  spec.key_domain = c.r_tuples * 4 + 16;
  spec.r_distribution = c.r_dist;
  spec.s_mode = c.s_mode;
  spec.seed = 99 + c.team_size;
  const auto dataset = workload::Generate(topology, c.team_size, spec);

  engine::EngineOptions engine_options;
  engine_options.workers = c.team_size;
  engine::Engine engine(topology, engine_options);
  auto result = workload::RunBenchmarkQuery(c.algorithm, engine, dataset.r,
                                            dataset.s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan().algorithm, c.algorithm);

  const uint64_t expected = baseline::ReferenceMaxPayloadSum(
      dataset.r.ToVector(), dataset.s.ToVector());
  EXPECT_EQ(result->max_sum.value_or(0), expected);
}

std::vector<JoinCase> AllCases() {
  std::vector<JoinCase> cases;
  const Algorithm algorithms[] = {Algorithm::kPMpsm, Algorithm::kBMpsm,
                                  Algorithm::kDMpsm, Algorithm::kWisconsin,
                                  Algorithm::kRadix};
  for (Algorithm a : algorithms) {
    for (uint32_t t : {1u, 2u, 4u, 7u}) {
      cases.push_back(JoinCase{a, t, 10000, 2.0,
                               KeyDistribution::kUniform,
                               SKeyMode::kForeignKey});
    }
    // Multiplicity sweep at fixed team size.
    for (double m : {0.5, 1.0, 8.0}) {
      cases.push_back(JoinCase{a, 4, 5000, m, KeyDistribution::kUniform,
                               SKeyMode::kForeignKey});
    }
    // Skewed private input, independent S.
    cases.push_back(JoinCase{a, 4, 20000, 1.0, KeyDistribution::kSkewLowEnd,
                             SKeyMode::kIndependent});
    cases.push_back(JoinCase{a, 4, 20000, 1.0, KeyDistribution::kSkewHighEnd,
                             SKeyMode::kIndependent});
    // Tiny inputs.
    cases.push_back(JoinCase{a, 4, 64, 1.0, KeyDistribution::kUniform,
                             SKeyMode::kForeignKey});
    cases.push_back(JoinCase{a, 3, 1, 1.0, KeyDistribution::kUniform,
                             SKeyMode::kForeignKey});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinCorrectnessTest,
                         testing::ValuesIn(AllCases()), CaseName);

// ------------------------------------------------- join kind variants

class JoinKindTest
    : public testing::TestWithParam<std::tuple<JoinKind, uint32_t, bool>> {};

TEST_P(JoinKindTest, PMpsmMatchesReference) {
  const auto [kind, team_size, use_b_mpsm] = GetParam();
  const auto topology = TestTopology();

  DatasetSpec spec;
  spec.r_tuples = 8000;
  spec.multiplicity = 1.5;
  spec.key_domain = 20000;  // some R tuples unmatched, duplicates exist
  spec.s_mode = SKeyMode::kIndependent;
  spec.seed = 777;
  const auto dataset = workload::Generate(topology, team_size, spec);

  WorkerTeam team(topology, team_size);
  MpsmOptions options;
  options.kind = kind;
  CountFactory counts(team_size);
  Result<JoinRunInfo> info = Status::Internal("unset");
  if (use_b_mpsm) {
    info = BMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
  } else {
    info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
  }
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), kind,
      reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, JoinKindTest,
    testing::Combine(testing::Values(JoinKind::kInner, JoinKind::kLeftSemi,
                                     JoinKind::kLeftAnti,
                                     JoinKind::kLeftOuter),
                     testing::Values(1u, 4u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<JoinKind, uint32_t, bool>>&
           info) {
      std::string name = JoinKindName(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      name += "_t" + std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_bmpsm" : "_pmpsm";
      return name;
    });

// ------------------------------------ kernel option matrix (tuning.md)

TEST(KernelOptionsTest, AllKernelCombinationsMatchReference) {
  // Both schedulers (static and stealing) must produce the reference
  // count through both P-MPSM and B-MPSM, at the process's SIMD kind
  // (CI's MPSM_SIMD legs run the scalar and AVX2 kernels). Each size
  // cuts every chunk into at least two kMorselTuples-tuple morsels
  // under stealing. The fan-out picks the scatter kernel: |R| = 160,000
  // cuts into at most 160,000 / 2^11 + T = 82 sort segments (the
  // scalar loop), |R| = 2^18 into more than 100 (write combining), as
  // does the radix join's automatic 2^7-way first pass.
  const auto topology = TestTopology();
  const uint32_t team_size = 4;
  for (const size_t r_tuples : {size_t{160000}, size_t{1} << 18}) {
    ASSERT_GE(r_tuples / team_size, 2 * kMorselTuples);
    DatasetSpec spec;
    spec.r_tuples = r_tuples;
    spec.multiplicity = 1.5;
    spec.key_domain = r_tuples * 5 / 2;
    spec.s_mode = SKeyMode::kIndependent;
    spec.seed = 4242;
    const auto dataset = workload::Generate(topology, team_size, spec);

    CountFactory reference(1);
    const uint64_t expected =
        baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                                JoinKind::kInner,
                                reference.ConsumerForWorker(0));

    for (SchedulerKind scheduler :
         {SchedulerKind::kStatic, SchedulerKind::kStealing}) {
      MpsmOptions options;
      options.scheduler = scheduler;
      const auto label = [&] {
        return std::to_string(r_tuples) + "/" + SchedulerKindName(scheduler);
      };
      {
        WorkerTeam team(topology, team_size);
        CountFactory counts(team_size);
        const auto info =
            PMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        EXPECT_EQ(counts.Result(), expected) << "p-mpsm " << label();
      }
      {
        WorkerTeam team(topology, team_size);
        CountFactory counts(team_size);
        const auto info =
            BMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        EXPECT_EQ(counts.Result(), expected) << "b-mpsm " << label();
      }
    }

    WorkerTeam team(topology, team_size);
    CountFactory counts(team_size);
    const auto info =
        baseline::RadixHashJoin().Execute(team, dataset.r, dataset.s, counts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(counts.Result(), expected) << "radix " << r_tuples;
  }
  EXPECT_EQ(baseline::RadixHashJoin::EffectiveBits(size_t{1} << 18),
            std::make_pair(7u, 0u));
}

TEST(RadixJoinTest, SecondPassMatchesReference) {
  // Automatic bits add a second partitioning pass only above
  // kTargetFragmentTuples * 2^11 = 2^22 build tuples: just above it,
  // pass 1 takes 11 bits and pass 2 one. A small probe side keeps the
  // test quick.
  const auto topology = TestTopology();
  const uint32_t team_size = 4;
  const size_t r_tuples = (size_t{1} << 22) + 4096;
  ASSERT_EQ(baseline::RadixHashJoin::EffectiveBits(r_tuples),
            std::make_pair(11u, 1u));
  DatasetSpec spec;
  spec.r_tuples = r_tuples;
  spec.multiplicity = 1.0 / 256;
  spec.seed = 2222;
  const auto dataset = workload::Generate(topology, team_size, spec);

  WorkerTeam team(topology, team_size);
  CountFactory counts(team_size);
  const auto info =
      baseline::RadixHashJoin().Execute(team, dataset.r, dataset.s, counts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // The second pass charges its copies to the phase-3 slot.
  EXPECT_GT(info->aggregate.phase_counters[kPhaseSortPrivate]
                .bytes_written_local_seq,
            0u);

  CountFactory reference(1);
  EXPECT_EQ(counts.Result(),
            baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                                    JoinKind::kInner,
                                    reference.ConsumerForWorker(0)));
}

// --------------------------------------------- materialized row check

TEST(JoinOutputTest, MaterializedRowsMatchReferenceMultiset) {
  const auto topology = TestTopology();
  DatasetSpec spec;
  spec.r_tuples = 3000;
  spec.multiplicity = 2.0;
  spec.key_domain = 6000;
  spec.s_mode = SKeyMode::kIndependent;
  const auto dataset = workload::Generate(topology, 4, spec);

  WorkerTeam team(topology, 4);
  MaterializeFactory rows(4);
  auto info = PMpsmJoin().Execute(team, dataset.r, dataset.s, rows);
  ASSERT_TRUE(info.ok());

  MaterializeFactory expected_rows(1);
  baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                          JoinKind::kInner,
                          expected_rows.ConsumerForWorker(0));

  auto actual = rows.AllRows();
  auto expected = expected_rows.AllRows();
  auto row_less = [](const OutputRow& a, const OutputRow& b) {
    return std::tie(a.key, a.r_payload, a.s_payload) <
           std::tie(b.key, b.r_payload, b.s_payload);
  };
  std::sort(actual.begin(), actual.end(), row_less);
  std::sort(expected.begin(), expected.end(), row_less);
  EXPECT_EQ(actual, expected);
}

// MPSM output arrives quasi-sorted: each worker's rows are grouped into
// runs sorted by key (one run per public input run scanned). With one
// public run per worker and T workers, each worker emits T sorted
// segments — the "interesting physical property" of §6/§7. A property
// of the static script (stealing range-slices the merges), so pin it.
TEST(JoinOutputTest, WorkerOutputIsQuasiSorted) {
  const auto topology = TestTopology();
  DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 1.0;
  spec.key_domain = 4000;
  const auto dataset = workload::Generate(topology, 4, spec);

  MpsmOptions static_options;
  static_options.scheduler = SchedulerKind::kStatic;
  WorkerTeam team(topology, 4);
  MaterializeFactory rows(4);
  auto info =
      PMpsmJoin(static_options).Execute(team, dataset.r, dataset.s, rows);
  ASSERT_TRUE(info.ok());

  for (uint32_t w = 0; w < 4; ++w) {
    const auto& out = rows.RowsOfWorker(w);
    // Count descents: at most team_size segments => at most 3 descents.
    uint32_t descents = 0;
    for (size_t i = 1; i < out.size(); ++i) {
      if (out[i].key < out[i - 1].key) ++descents;
    }
    EXPECT_LE(descents, 3u) << "worker " << w;
  }
}

// Location skew (§5.5): key-ordered S must not change the result.
TEST(JoinOutputTest, LocationSkewPreservesResult) {
  const auto topology = TestTopology();
  DatasetSpec spec;
  spec.r_tuples = 10000;
  spec.multiplicity = 4.0;
  spec.seed = 5;

  spec.s_arrangement = Arrangement::kShuffled;
  const auto base = workload::Generate(topology, 4, spec);
  spec.s_arrangement = Arrangement::kKeyOrdered;
  const auto skewed = workload::Generate(topology, 4, spec);

  WorkerTeam team(topology, 4);
  CountFactory counts_base(4), counts_skew(4);
  ASSERT_TRUE(PMpsmJoin().Execute(team, base.r, base.s, counts_base).ok());
  ASSERT_TRUE(
      PMpsmJoin().Execute(team, skewed.r, skewed.s, counts_skew).ok());
  EXPECT_EQ(counts_base.Result(), counts_skew.Result());
}

// Mismatched chunking must be rejected, not crash.
TEST(JoinErrorTest, RejectsWrongChunkCount) {
  const auto topology = TestTopology();
  DatasetSpec spec;
  spec.r_tuples = 100;
  spec.multiplicity = 1.0;
  const auto dataset = workload::Generate(topology, 2, spec);

  WorkerTeam team(topology, 4);  // != 2 chunks
  CountFactory counts(4);
  auto p = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  auto b = BMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
  EXPECT_FALSE(b.ok());
  auto w = baseline::WisconsinHashJoin().Execute(team, dataset.r, dataset.s,
                                                 counts);
  EXPECT_FALSE(w.ok());
  auto rx =
      baseline::RadixHashJoin().Execute(team, dataset.r, dataset.s, counts);
  EXPECT_FALSE(rx.ok());
}

// Joins with an empty side.
TEST(JoinEdgeTest, EmptyInputs) {
  const auto topology = TestTopology();
  WorkerTeam team(topology, 4);

  Relation empty_r = Relation::Allocate(topology, 0, 4);
  DatasetSpec spec;
  spec.r_tuples = 1000;
  spec.multiplicity = 1.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  {
    CountFactory counts(4);
    auto info = PMpsmJoin().Execute(team, empty_r, dataset.s, counts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(counts.Result(), 0u);
  }
  {
    Relation empty_s = Relation::Allocate(topology, 0, 4);
    CountFactory counts(4);
    auto info = PMpsmJoin().Execute(team, dataset.r, empty_s, counts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(counts.Result(), 0u);
  }
  {
    // Anti join with empty S: everything in R is unmatched.
    Relation empty_s = Relation::Allocate(topology, 0, 4);
    MpsmOptions options;
    options.kind = JoinKind::kLeftAnti;
    CountFactory counts(4);
    auto info =
        PMpsmJoin(options).Execute(team, dataset.r, empty_s, counts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(counts.Result(), dataset.r.size());
  }
}

}  // namespace
}  // namespace mpsm

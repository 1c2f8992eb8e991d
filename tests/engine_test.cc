// Engine front door: planner golden decisions, front-door validation,
// session reuse, and the engine round-trip matrix (every planned
// algorithm must reproduce the reference join for every JoinKind it
// supports).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "engine/engine.h"
#include "io/io_backend.h"
#include "numa/topology.h"
#include "storage/tuple.h"
#include "workload/generator.h"

namespace mpsm::engine {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(4, 8); }

/// A uniform FK dataset big enough to clear the tiny-input rule.
workload::Dataset MediumDataset(const numa::Topology& topology,
                                uint32_t chunks) {
  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 16;
  spec.multiplicity = 2.0;
  spec.seed = 7;
  return workload::Generate(topology, chunks, spec);
}

// ----------------------------------------------------- planner golden

TEST(PlannerGoldenTest, InMemoryUniformChoosesPMpsm) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, Algorithm::kPMpsm);
  EXPECT_GT(plan->predicted_seconds, 0.0);
  // The estimate is near-uniform and the candidate list is complete.
  EXPECT_LT(plan->inputs.skew, 2.0);
  EXPECT_EQ(plan->candidates.size(), kNumAlgorithms);
  // Planning must not spawn worker threads.
  EXPECT_EQ(engine.team(), nullptr);
  EXPECT_EQ(engine.stats().team_spawns, 0u);
}

TEST(PlannerGoldenTest, MemoryBudgetSpillsToDMpsm) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  // Working set = 2 * (|R| + |S|) * 16 bytes ~ 6.3 MB; budget 1 MB.
  spec.memory_budget_bytes = 1u << 20;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, Algorithm::kDMpsm);
  // The buffer pool gets half the budget, and EXPLAIN names that budget
  // (D-MPSM sizes its frames and staging ring from it).
  EXPECT_EQ(plan->dmpsm.pool_budget_bytes, spec.memory_budget_bytes / 2);
  EXPECT_NE(plan->rationale.find(
                std::to_string(spec.memory_budget_bytes / 2) + " bytes"),
            std::string::npos)
      << plan->rationale;
  // In-memory candidates are marked infeasible, with the reason.
  const auto& pmpsm = plan->candidates[static_cast<size_t>(Algorithm::kPMpsm)];
  EXPECT_FALSE(pmpsm.feasible);
  EXPECT_NE(pmpsm.note.find("budget"), std::string::npos);
}

TEST(PlannerGoldenTest, GenerousBudgetStaysInMemory) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.memory_budget_bytes = uint64_t{1} << 30;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kPMpsm);
}

TEST(PlannerGoldenTest, TinyInputsChooseWisconsin) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1000;
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  EngineOptions options;
  options.workers = 4;
  Engine engine(topology, options);
  JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  auto plan = engine.Plan(join);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kWisconsin);
  EXPECT_NE(plan->rationale.find("tiny"), std::string::npos);
}

TEST(PlannerGoldenTest, PlanCarriesTheVariantOptionsUnchanged) {
  // Every field of the two variant structs is set away from its
  // default, and the plan must carry each value through. Two fields
  // are the planner's: mpsm.kind comes from JoinSpec::kind, and an
  // unset dmpsm.pool_budget_bytes becomes half the query budget.
  // D-MPSM's struct is its spill geometry alone: the journal is built
  // per query at Execute, so no plan carries a manifest or resume
  // state.
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);

  EngineOptions options;
  options.workers = 8;
  MpsmOptions& m = options.mpsm;
  m.kind = JoinKind::kLeftAnti;
  m.radix_bits = 12;
  m.start_search = StartSearch::kBinary;
  m.cost_balanced_splitters = false;
  m.scheduler = SchedulerKind::kStatic;
  disk::DMpsmOptions& d = options.dmpsm;
  d.tuples_per_page = 1024;
  d.pool_budget_bytes = 3u << 20;
  d.directory = "/spill";
  d.io_delay_us = 7;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = JoinKind::kLeftSemi;
  spec.memory_budget_bytes = uint64_t{1} << 30;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_EQ(plan->mpsm.kind, JoinKind::kLeftSemi);
  EXPECT_EQ(plan->mpsm.radix_bits, m.radix_bits);
  EXPECT_EQ(plan->mpsm.start_search, m.start_search);
  EXPECT_EQ(plan->mpsm.cost_balanced_splitters, m.cost_balanced_splitters);
  EXPECT_EQ(plan->mpsm.scheduler, m.scheduler);

  EXPECT_EQ(plan->dmpsm.tuples_per_page, d.tuples_per_page);
  EXPECT_EQ(plan->dmpsm.pool_budget_bytes, d.pool_budget_bytes);  // wins
  EXPECT_EQ(plan->dmpsm.directory, d.directory);
  EXPECT_EQ(plan->dmpsm.io_delay_us, d.io_delay_us);

  // Unset, the pool budget is half the query's; without a budget it
  // stays unset (kDefaultPoolBudgetBytes).
  EngineOptions unset = options;
  unset.dmpsm.pool_budget_bytes = 0;
  spec.options = &unset;
  plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->dmpsm.pool_budget_bytes, spec.memory_budget_bytes / 2);
  spec.memory_budget_bytes = 0;
  plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->dmpsm.pool_budget_bytes, 0u);
}

TEST(PlannerGoldenTest, RejectsBadIoKnobsAtTheFrontDoor) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  options.dmpsm.directory = "";  // no spool directory to write pages to
  Engine engine(topology, options);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerGoldenTest, NonInnerJoinsStayInTheMpsmFamily) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1000;  // tiny on purpose: rule 3 precedes rule 4
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  EngineOptions options;
  options.workers = 4;
  Engine engine(topology, options);
  for (const JoinKind kind :
       {JoinKind::kLeftSemi, JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
    JoinSpec join;
    join.r = &dataset.r;
    join.s = &dataset.s;
    join.kind = kind;
    auto plan = engine.Plan(join);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(plan->algorithm == Algorithm::kPMpsm ||
                plan->algorithm == Algorithm::kBMpsm)
        << AlgorithmName(plan->algorithm);
  }
}

TEST(PlannerGoldenTest, SkewedDataRaisesTheSkewEstimate) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 16;
  spec.multiplicity = 1.0;
  spec.r_distribution = workload::KeyDistribution::kSkewHighEnd;
  spec.s_distribution = workload::KeyDistribution::kSkewLowEnd;
  spec.s_mode = workload::SKeyMode::kIndependent;
  const auto dataset = workload::Generate(topology, 4, spec);
  const double skew = Planner::EstimateSkew(dataset.r, dataset.s);
  EXPECT_GT(skew, 2.0);

  const auto uniform = MediumDataset(topology, 4);
  EXPECT_LT(Planner::EstimateSkew(uniform.r, uniform.s), 2.0);
}

TEST(PlannerGoldenTest, ForcedAlgorithmWinsAndPlanExplains) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.algorithm = Algorithm::kBMpsm;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kBMpsm);
  EXPECT_NE(plan->rationale.find("forced"), std::string::npos);
  // The EXPLAIN dump names the chosen algorithm.
  EXPECT_NE(plan->ToString().find("b-mpsm"), std::string::npos);
}

TEST(PlannerGoldenTest, SpillWithNonInnerKindIsNotSupported) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = JoinKind::kLeftOuter;
  spec.memory_budget_bytes = 1u << 20;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotSupported);
}

// ------------------------------------------------ front-door validation

TEST(EngineValidationTest, RejectsUndersizedRadixBits) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 16);
  EngineOptions options;
  options.workers = 16;
  options.mpsm.radix_bits = 3;  // < ceil(log2(16)) = 4
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("radix_bits"), std::string::npos);
}

TEST(EngineValidationTest, RejectsBadMpsmKnobsThroughTheEngine) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 4);
  for (auto mutate : {+[](MpsmOptions& o) { o.radix_bits = 1; },  // < log2 T
                      +[](MpsmOptions& o) { o.radix_bits = 25; }}) {
    EngineOptions options;
    options.workers = 4;
    mutate(options.mpsm);
    Engine engine(topology, options);

    CountFactory counts(4);
    JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = &counts;
    auto report = engine.Execute(spec);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineValidationTest, RejectsMismatchedChunking) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 4);
  EngineOptions options;
  options.workers = 8;  // != the inputs' 4 chunks
  Engine engine(topology, options);

  CountFactory counts(8);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;
  auto report = engine.Execute(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ session reuse

TEST(EngineSessionTest, ConsecutiveQueriesReuseTeamAndTopology) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);
  // Injected topology: the engine never probes.
  EXPECT_EQ(engine.stats().topology_probes, 0u);

  std::vector<size_t> first_reserved(8);
  uint64_t matches = 0;
  for (int query = 0; query < 3; ++query) {
    CountFactory counts(8);
    JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = &counts;
    auto report = engine.Execute(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->plan.algorithm, Algorithm::kPMpsm);
    matches = counts.Result();
    EXPECT_GT(matches, 0u);
    // The team arenas keep the first query's run memory; later queries
    // rewind into it and add no block.
    for (uint32_t w = 0; w < 8; ++w) {
      const size_t reserved = engine.team()->ArenaOf(w).bytes_reserved();
      if (query == 0) {
        EXPECT_GT(reserved, 0u);
        first_reserved[w] = reserved;
      } else {
        EXPECT_EQ(reserved, first_reserved[w])
            << "query " << query << ", worker " << w;
      }
    }
  }
  EXPECT_EQ(engine.stats().queries_executed, 3u);
  EXPECT_EQ(engine.stats().plans_created, 3u);
  EXPECT_EQ(engine.stats().team_spawns, 1u);

  // A budgeted spill does not allocate from the team arenas and must
  // not run next to the previous join's runs: the session frees them.
  CountFactory spilled(8);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &spilled;
  spec.memory_budget_bytes = 1u << 20;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->plan.algorithm, Algorithm::kDMpsm);
  EXPECT_EQ(spilled.Result(), matches);
  for (uint32_t w = 0; w < 8; ++w) {
    EXPECT_EQ(engine.team()->ArenaOf(w).bytes_reserved(), 0u) << w;
  }
  EXPECT_EQ(engine.stats().team_spawns, 1u);
}

TEST(EngineSessionTest, AutoTeamSizeFollowsChunkingAndRespawnsOnce) {
  const auto topology = Topo();
  EngineOptions options;  // workers = 0: size from the inputs
  Engine engine(topology, options);

  const auto four = MediumDataset(topology, 4);
  const auto eight = MediumDataset(topology, 8);
  auto run = [&](const workload::Dataset& dataset, uint32_t chunks) {
    CountFactory counts(chunks);
    JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = &counts;
    ASSERT_TRUE(engine.Execute(spec).ok());
  };
  run(four, 4);
  run(four, 4);
  EXPECT_EQ(engine.stats().team_spawns, 1u);
  run(eight, 8);  // different chunking: one re-spawn
  EXPECT_EQ(engine.stats().team_spawns, 2u);
  EXPECT_EQ(engine.team()->size(), 8u);
}

// ------------------------------------------------- round-trip matrix

// `io_backend` is the engine the D-MPSM cells must run on: the
// threadpool under a synthetic device delay, io_uring on the page
// cache (those cells skip where the kernel refuses io_uring).
struct MatrixCase {
  Algorithm algorithm;
  JoinKind kind;
  io::IoBackendKind io_backend;
};

std::string MatrixName(const testing::TestParamInfo<MatrixCase>& info) {
  std::string name = std::string(AlgorithmName(info.param.algorithm)) + "_" +
                     JoinKindName(info.param.kind) + "_" +
                     io::IoBackendKindName(info.param.io_backend);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class EngineMatrixTest : public testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixTest, MatchesReferenceJoin) {
  const auto [algorithm, kind, io_backend] = GetParam();
  if (io_backend == io::IoBackendKind::kUring && !io::UringSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const auto topology = Topo();
  constexpr uint32_t kWorkers = 4;

  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 1.5;
  spec.key_domain = 15000;  // duplicates and unmatched tuples exist
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 321;
  const auto dataset = workload::Generate(topology, kWorkers, spec);
  workload::DatasetSpec small_spec = spec;
  small_spec.r_tuples = 1500;
  small_spec.key_domain = 4000;
  small_spec.seed = 322;
  const auto small = workload::Generate(topology, kWorkers, small_spec);

  EngineOptions options;
  options.workers = kWorkers;
  if (io_backend == io::IoBackendKind::kThreadpool) {
    options.dmpsm.io_delay_us = 1;
  }
  Engine engine(topology, options);

  // Three joins on one session: the cell's join, a smaller one, then
  // the cell's join again. P-MPSM and B-MPSM rewind the team arenas
  // between queries, so stale tuples in reused memory would show here.
  for (const workload::Dataset* data : {&dataset, &small, &dataset}) {
    CountFactory counts(kWorkers);
    JoinSpec join;
    join.r = &data->r;
    join.s = &data->s;
    join.kind = kind;
    join.consumers = &counts;
    join.algorithm = algorithm;

    auto report = engine.Execute(join);
    if (!SupportsKind(algorithm, kind)) {
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(report.status().code(), StatusCode::kNotSupported);
      return;
    }
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->plan.algorithm, algorithm);

    CountFactory reference(1);
    const uint64_t expected =
        baseline::ReferenceJoin(data->r.ToVector(), data->s.ToVector(), kind,
                                reference.ConsumerForWorker(0));
    EXPECT_EQ(counts.Result(), expected) << data->r.size() << " R tuples";
    EXPECT_EQ(report->info.output_tuples, expected);

    // Variant-specific diagnostics land in the unified report.
    EXPECT_EQ(report->pmpsm.has_value(), algorithm == Algorithm::kPMpsm);
    EXPECT_EQ(report->dmpsm.has_value(), algorithm == Algorithm::kDMpsm);
    if (report->dmpsm.has_value()) {
      EXPECT_EQ(report->dmpsm->io_backend_used, io_backend);
    }
  }
}

std::vector<MatrixCase> AllMatrixCases() {
  // The 5x4 algorithm x JoinKind matrix on both spill devices (the
  // device only steers the D-MPSM spill path, but the whole matrix
  // must stay green on either session).
  std::vector<MatrixCase> cases;
  for (const io::IoBackendKind backend :
       {io::IoBackendKind::kThreadpool, io::IoBackendKind::kUring}) {
    for (const Algorithm a :
         {Algorithm::kPMpsm, Algorithm::kBMpsm, Algorithm::kDMpsm,
          Algorithm::kRadix, Algorithm::kWisconsin}) {
      for (const JoinKind k : {JoinKind::kInner, JoinKind::kLeftSemi,
                               JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
        cases.push_back({a, k, backend});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineMatrixTest,
                         testing::ValuesIn(AllMatrixCases()), MatrixName);

}  // namespace
}  // namespace mpsm::engine

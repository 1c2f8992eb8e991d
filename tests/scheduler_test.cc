// The morsel-driven phase scheduler: claim ordering, locality-first
// dispatch, work stealing, the no-idle-while-work-remains invariant,
// exactly-once execution under real concurrency, and the PhasePipeline
// step machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "numa/topology.h"
#include "parallel/task_scheduler.h"
#include "parallel/worker_team.h"

namespace mpsm {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(4, 2); }

WorkerContext ContextFor(const numa::Topology& topology, uint32_t worker,
                         uint32_t team_size, WorkerStats* stats = nullptr) {
  WorkerContext ctx;
  ctx.worker_id = worker;
  ctx.team_size = team_size;
  ctx.core = topology.CoreForWorker(worker, team_size);
  ctx.node = topology.NodeOfCore(ctx.core);
  ctx.stats = stats;
  ctx.topology = &topology;
  return ctx;
}

std::vector<Morsel> HomedMorsels(std::vector<uint32_t> homes) {
  std::vector<Morsel> morsels;
  for (uint32_t i = 0; i < homes.size(); ++i) {
    morsels.push_back(Morsel{homes[i], i, 0, 0});
  }
  return morsels;
}

TEST(SchedulerKindTest, Names) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kStatic), "static");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kStealing), "stealing");
}

TEST(SliceRangesTest, CoversExactlyWithoutOverlap) {
  const auto ranges = SliceRanges(100, 32);
  ASSERT_EQ(ranges.size(), 4u);
  uint64_t cursor = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, cursor);
    EXPECT_LE(end - begin, 32u);
    cursor = end;
  }
  EXPECT_EQ(cursor, 100u);
}

TEST(SliceRangesTest, EmptyTotalYieldsOneEmptyRange) {
  const auto ranges = SliceRanges(0, 16);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(uint64_t{0}, uint64_t{0}));
}

TEST(TaskSchedulerTest, StaticClaimsOwnMorselsInOrder) {
  const auto topology = Topo();
  TaskScheduler scheduler(topology, 4, SchedulerKind::kStatic);
  scheduler.Reset(HomedMorsels({0, 1, 0, 2}));

  PerfCounters counters;
  auto ctx0 = ContextFor(topology, 0, 4);
  const Morsel* first = scheduler.Claim(ctx0, counters);
  const Morsel* second = scheduler.Claim(ctx0, counters);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->task, 0u);
  EXPECT_EQ(second->task, 2u);
  // Static mode never crosses worker lists: worker 0 is done, even
  // though morsels remain for workers 1 and 2.
  EXPECT_EQ(scheduler.Claim(ctx0, counters), nullptr);
  EXPECT_EQ(counters.morsels_executed, 2u);
  EXPECT_EQ(counters.morsels_stolen, 0u);
  // ...and claims are free of atomics (commandment C3 in static mode).
  EXPECT_EQ(counters.sync_acquisitions, 0u);
  EXPECT_EQ(scheduler.remaining(), 2u);

  auto ctx3 = ContextFor(topology, 3, 4);
  EXPECT_EQ(scheduler.Claim(ctx3, counters), nullptr);
}

TEST(TaskSchedulerTest, StealingNeverIdlesWhileMorselsRemain) {
  const auto topology = Topo();
  TaskScheduler scheduler(topology, 4, SchedulerKind::kStealing);
  // Everything homed on worker 0 (node 0): a worker on another node
  // must drain it all by stealing rather than going idle.
  scheduler.Reset(HomedMorsels({0, 0, 0, 0, 0}));

  PerfCounters counters;
  auto ctx1 = ContextFor(topology, 1, 4);
  ASSERT_NE(ctx1.node, ContextFor(topology, 0, 4).node);
  size_t claimed = 0;
  while (scheduler.Claim(ctx1, counters) != nullptr) ++claimed;
  EXPECT_EQ(claimed, 5u);
  EXPECT_EQ(scheduler.remaining(), 0u);
  EXPECT_EQ(counters.morsels_executed, 5u);
  EXPECT_EQ(counters.morsels_stolen, 5u);   // every claim crossed nodes
  EXPECT_EQ(counters.sync_acquisitions, 5u);  // one atomic per claim
}

TEST(TaskSchedulerTest, StealingPrefersOwnNodeFirst) {
  const auto topology = Topo();
  TaskScheduler scheduler(topology, 4, SchedulerKind::kStealing);
  // Workers 0..3 land on nodes 0..3 (socket-major placement); tasks
  // 0/2 are local to worker 0, tasks 1/3 are on other nodes.
  scheduler.Reset(HomedMorsels({1, 0, 3, 0}));

  PerfCounters counters;
  auto ctx0 = ContextFor(topology, 0, 4);
  std::vector<uint32_t> order;
  while (const Morsel* m = scheduler.Claim(ctx0, counters)) {
    order.push_back(m->task);
  }
  ASSERT_EQ(order.size(), 4u);
  // Own node's queue (tasks 1 and 3, in queue order) drains first.
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(counters.morsels_stolen, 2u);
}

TEST(TaskSchedulerTest, ExactlyOnceUnderConcurrency) {
  const auto topology = Topo();
  const uint32_t team_size = 8;
  const uint32_t num_morsels = 4096;
  WorkerTeam team(topology, team_size);
  TaskScheduler scheduler(topology, team_size, SchedulerKind::kStealing);
  std::vector<uint32_t> homes(num_morsels);
  for (uint32_t i = 0; i < num_morsels; ++i) homes[i] = i % 3;  // skewed
  scheduler.Reset(HomedMorsels(homes));

  std::vector<std::vector<uint32_t>> claimed(team_size);
  team.Run([&](WorkerContext& ctx) {
    while (const Morsel* m =
               scheduler.Claim(ctx, ctx.Counters(kPhaseJoin))) {
      claimed[ctx.worker_id].push_back(m->task);
    }
  });

  std::vector<uint32_t> all;
  for (const auto& worker_claims : claimed) {
    all.insert(all.end(), worker_claims.begin(), worker_claims.end());
  }
  ASSERT_EQ(all.size(), num_morsels);
  std::sort(all.begin(), all.end());
  for (uint32_t i = 0; i < num_morsels; ++i) {
    EXPECT_EQ(all[i], i);  // every morsel claimed exactly once
  }
  EXPECT_EQ(scheduler.remaining(), 0u);
  const auto total = team.AggregateStats().TotalCounters();
  EXPECT_EQ(total.morsels_executed, num_morsels);
  EXPECT_EQ(total.sync_acquisitions, num_morsels);
}

TEST(PhasePipelineTest, StepsRunInOrderWithSerialCombine) {
  for (SchedulerKind kind :
       {SchedulerKind::kStatic, SchedulerKind::kStealing}) {
    const auto topology = Topo();
    const uint32_t team_size = 4;
    WorkerTeam team(topology, team_size);
    PhasePipeline pipeline(topology, team_size, kind);

    std::vector<uint64_t> produced(team_size, 0);
    uint64_t combined = 0;
    std::atomic<uint64_t> consumed{0};

    pipeline.AddPhase(
        kPhaseSortPublic,
        [&] {
          std::vector<Morsel> morsels;
          for (uint32_t w = 0; w < team_size; ++w) {
            morsels.push_back(Morsel{w, w, 0, 0});
          }
          return morsels;
        },
        [&](WorkerContext&, const Morsel& morsel) {
          produced[morsel.task] = morsel.task + 1;
        });
    pipeline.AddSerial(kPhasePartition, [&](WorkerContext&) {
      for (uint64_t v : produced) combined += v;
    });
    // Lazy factory: must observe the serial step's product.
    pipeline.AddPhase(
        kPhaseJoin,
        [&] {
          EXPECT_EQ(combined, 1u + 2 + 3 + 4);
          std::vector<Morsel> morsels;
          for (uint32_t w = 0; w < team_size; ++w) {
            morsels.push_back(Morsel{w, w, 0, combined});
          }
          return morsels;
        },
        [&](WorkerContext&, const Morsel& morsel) {
          consumed.fetch_add(morsel.end, std::memory_order_relaxed);
        },
        PhasePipeline::PhaseOptions{.eager = false});

    pipeline.Run(team);
    EXPECT_EQ(combined, 10u) << SchedulerKindName(kind);
    EXPECT_EQ(consumed.load(), 40u) << SchedulerKindName(kind);
  }
}

TEST(PhasePipelineTest, PinnedPhaseExecutesOnHomeWorker) {
  const auto topology = Topo();
  const uint32_t team_size = 4;
  WorkerTeam team(topology, team_size);
  PhasePipeline pipeline(topology, team_size, SchedulerKind::kStealing);

  std::vector<uint32_t> executor(team_size, ~0u);
  pipeline.AddPhase(
      kPhasePartition,
      [&] {
        // All morsels homed on worker 2: a stealing scheduler would let
        // others take them; pinned must not.
        std::vector<Morsel> morsels;
        for (uint32_t t = 0; t < team_size; ++t) {
          morsels.push_back(Morsel{t, t, 0, 0});
        }
        return morsels;
      },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        executor[morsel.task] = ctx.worker_id;
      },
      PhasePipeline::PhaseOptions{.pinned = true});
  pipeline.Run(team);
  for (uint32_t t = 0; t < team_size; ++t) {
    EXPECT_EQ(executor[t], t);
  }
}

}  // namespace
}  // namespace mpsm

// Infrastructure: NUMA topology + arenas, barrier, worker team,
// counters, relations and runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "numa/arena.h"
#include "numa/topology.h"
#include "parallel/barrier.h"
#include "parallel/counters.h"
#include "parallel/worker_team.h"
#include "storage/relation.h"
#include "storage/run.h"

namespace mpsm {
namespace {

// ---------------------------------------------------------- topology

TEST(TopologyTest, SimulatedLayout) {
  const auto topo = numa::Topology::Simulated(4, 8);
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.num_cores(), 32u);
  EXPECT_TRUE(topo.simulated());
  for (uint32_t core = 0; core < 32; ++core) {
    EXPECT_EQ(topo.NodeOfCore(core), core / 8);
  }
  for (uint32_t node = 0; node < 4; ++node) {
    EXPECT_EQ(topo.CoresOfNode(node).size(), 8u);
  }
}

TEST(TopologyTest, DistanceMatrix) {
  const auto topo = numa::Topology::Simulated(3, 2, 25);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      EXPECT_EQ(topo.Distance(a, b), a == b ? 10u : 25u);
      EXPECT_EQ(topo.IsLocal(a, b), a == b);
    }
  }
}

TEST(TopologyTest, HyPer1MatchesFigure11) {
  const auto topo = numa::Topology::HyPer1();
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.num_cores(), 32u);
}

TEST(TopologyTest, WorkerPlacementSpreadsAcrossNodes) {
  const auto topo = numa::Topology::Simulated(4, 8);
  // The first 4 workers land on 4 distinct nodes (socket-major).
  std::set<numa::NodeId> nodes;
  for (uint32_t w = 0; w < 4; ++w) {
    nodes.insert(topo.NodeForWorker(w, 32));
  }
  EXPECT_EQ(nodes.size(), 4u);
  // 32 workers use all 32 distinct cores.
  std::set<uint32_t> cores;
  for (uint32_t w = 0; w < 32; ++w) {
    cores.insert(topo.CoreForWorker(w, 32));
  }
  EXPECT_EQ(cores.size(), 32u);
}

TEST(TopologyTest, ProbeNeverFails) {
  const auto topo = numa::Topology::Probe();
  EXPECT_GE(topo.num_nodes(), 1u);
  EXPECT_GE(topo.num_cores(), 1u);
  EXPECT_FALSE(topo.ToString().empty());
}

// ------------------------------------------------------------- arena

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  numa::Arena arena(2, /*block_bytes=*/4096);
  EXPECT_EQ(arena.node(), 2u);

  auto* a = arena.AllocateArray<Tuple>(100);
  auto* b = arena.AllocateArray<Tuple>(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  // Disjoint: writing one must not clobber the other.
  std::memset(a, 0xAA, 100 * sizeof(Tuple));
  std::memset(b, 0x55, 100 * sizeof(Tuple));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(a)[99 * 16], 0xAA);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(b)[0], 0x55);
}

TEST(ArenaTest, GrowsBeyondBlockSize) {
  numa::Arena arena(0, /*block_bytes=*/1024);
  // Allocation larger than the block must still succeed.
  auto* big = arena.AllocateArray<Tuple>(10000);
  big[9999] = Tuple{1, 2};
  EXPECT_EQ(big[9999].key, 1u);
  EXPECT_GE(arena.bytes_allocated(), 10000 * sizeof(Tuple));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, ManySmallAllocations) {
  numa::Arena arena(1, 4096);
  std::vector<uint64_t*> pointers;
  for (int i = 0; i < 1000; ++i) {
    auto* p = arena.AllocateArray<uint64_t>(7);
    *p = i;
    pointers.push_back(p);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*pointers[i], uint64_t(i));
}

// Runs one fixed allocation sequence (a query's run and partition
// arrays, in miniature): sizes cross the 4 KiB block several times.
std::vector<void*> AllocateSequence(numa::Arena& arena) {
  std::vector<void*> out;
  for (const size_t tuples : {100, 300, 10, 1000, 40, 250}) {
    Tuple* p = arena.AllocateArray<Tuple>(tuples);
    p[tuples - 1] = Tuple{tuples, 0};  // the whole range is writable
    out.push_back(p);
  }
  return out;
}

TEST(ArenaTest, ResetReplaysTheSameAddressesWithoutNewBlocks) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  const std::vector<void*> first = AllocateSequence(arena);
  const size_t reserved = arena.bytes_reserved();
  const size_t allocated = arena.bytes_allocated();
  for (int query = 0; query < 3; ++query) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    EXPECT_EQ(AllocateSequence(arena), first);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    EXPECT_EQ(arena.bytes_allocated(), allocated);
  }
}

TEST(ArenaTest, AlignmentHoldsAfterReset) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  for (int query = 0; query < 2; ++query) {
    arena.Reset();
    for (const size_t alignment : {8, 64, 256, 4096, 64, 8192}) {
      auto* p = static_cast<char*>(arena.AllocateBytes(13, alignment));
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u);
      std::memset(p, 0x5A, 13);
    }
  }
}

TEST(ArenaTest, ResetFreesBlocksTheLastUseDidNotReach) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  // 4000 + 64 bytes fit one block but two do not: three blocks.
  for (int i = 0; i < 3; ++i) arena.AllocateBytes(4000);
  EXPECT_EQ(arena.bytes_reserved(), 3u * 4096);
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), 3u * 4096);  // kept for reuse
  arena.AllocateBytes(4000);  // reaches the first block only
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), 4096u);
  arena.Reset();  // nothing reached: nothing kept
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(ArenaTest, AllocationFittingNoKeptBlockFreesTheRestFirst) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  for (int i = 0; i < 3; ++i) arena.AllocateBytes(4000);
  arena.Reset();
  // Larger than the next kept block: every kept block not yet reached
  // is freed before the one new block is added.
  void* big = arena.AllocateBytes(10000);
  EXPECT_EQ(arena.bytes_reserved(), 10000u + 64);
  arena.Reset();
  EXPECT_EQ(arena.AllocateBytes(10000), big);
  EXPECT_EQ(arena.bytes_reserved(), 10000u + 64);
}

TEST(ArenaTest, ReleaseFreesEverything) {
  numa::Arena arena(1, /*block_bytes=*/4096);
  AllocateSequence(arena);
  ASSERT_GT(arena.bytes_reserved(), 0u);
  arena.Release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // A released arena allocates again from scratch.
  AllocateSequence(arena);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(ArenaTest, ResetOnAnEmptyArenaIsANoOp) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  auto* p = arena.AllocateArray<uint64_t>(7);
  *p = 42;
  EXPECT_EQ(*p, 42u);
  EXPECT_EQ(arena.bytes_reserved(), 4096u);
}

#if defined(__SANITIZE_ADDRESS__)
// Rewound memory is poisoned: a run pointer kept across queries (a
// Reset) is caught on its first read, even though the block is reused.
TEST(ArenaDeathTest, PointerKeptAcrossResetDiesOnRead) {
  numa::Arena arena(0, /*block_bytes=*/4096);
  uint64_t* stale = arena.AllocateArray<uint64_t>(8);
  stale[3] = 7;
  arena.Reset();
  EXPECT_DEATH(
      {
        const volatile uint64_t* p = stale + 3;
        std::printf("%llu\n", static_cast<unsigned long long>(*p));
      },
      "use-after-poison");
}
#endif

// ----------------------------------------------------------- barrier

TEST(BarrierTest, SingleParticipant) {
  Barrier barrier(1);
  EXPECT_TRUE(barrier.Wait());
  EXPECT_TRUE(barrier.Wait());  // reusable
}

TEST(BarrierTest, ExactlyOneSerialThreadPerRound) {
  constexpr uint32_t kThreads = 8;
  constexpr int kRounds = 50;
  Barrier barrier(kThreads);
  std::atomic<int> serial_count{0};
  std::atomic<int> phase_check{0};

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        phase_check.fetch_add(1);
        if (barrier.Wait()) serial_count.fetch_add(1);
        // All kThreads arrivals of this round must be visible.
        EXPECT_GE(phase_check.load(), (round + 1) * int(kThreads));
        barrier.Wait();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(serial_count.load(), kRounds);
}

// ---------------------------------------------------------- counters

TEST(CountersTest, ClassifiedTraffic) {
  PerfCounters c;
  c.CountRead(true, true, 100);
  c.CountRead(false, true, 200);
  c.CountRead(true, false, 300);
  c.CountRead(false, false, 400);
  c.CountWrite(true, true, 10);
  c.CountWrite(false, false, 20);
  EXPECT_EQ(c.bytes_read_local_seq, 100u);
  EXPECT_EQ(c.bytes_read_remote_seq, 200u);
  EXPECT_EQ(c.bytes_read_local_rand, 300u);
  EXPECT_EQ(c.bytes_read_remote_rand, 400u);
  EXPECT_EQ(c.bytes_written_local_seq, 10u);
  EXPECT_EQ(c.bytes_written_remote_rand, 20u);
  EXPECT_EQ(c.TotalBytes(), 1030u);
}

TEST(CountersTest, SortWorkAccumulates) {
  PerfCounters c;
  c.CountSort(0);  // no-op
  c.CountSort(1024);
  EXPECT_EQ(c.sort_tuples, 1024u);
  EXPECT_EQ(c.sort_tuple_logs, 1024u * 10);
  c.CountSort(1);
  EXPECT_EQ(c.sort_tuples, 1025u);
}

TEST(CountersTest, AggregationAndPhaseNames) {
  WorkerStats a, b;
  a.phase_seconds[kPhaseJoin] = 1.5;
  a.phase_counters[kPhaseJoin].output_tuples = 10;
  b.phase_seconds[kPhaseJoin] = 0.5;
  b.phase_counters[kPhaseSortPublic].sort_tuples = 7;
  a += b;
  EXPECT_DOUBLE_EQ(a.phase_seconds[kPhaseJoin], 2.0);
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), 2.0);
  EXPECT_EQ(a.TotalCounters().output_tuples, 10u);
  EXPECT_EQ(a.TotalCounters().sort_tuples, 7u);
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    EXPECT_STRNE(JoinPhaseName(static_cast<JoinPhase>(p)), "unknown");
  }
}

// -------------------------------------------------------- worker team

TEST(WorkerTeamTest, RunsAllWorkersWithCorrectContext) {
  const auto topo = numa::Topology::Simulated(4, 4);
  WorkerTeam team(topo, 8);
  std::vector<uint32_t> seen(8, 0);
  std::vector<numa::NodeId> nodes(8, 99);
  team.Run([&](WorkerContext& ctx) {
    seen[ctx.worker_id] = 1;
    nodes[ctx.worker_id] = ctx.node;
    EXPECT_EQ(ctx.team_size, 8u);
    EXPECT_EQ(ctx.arena->node(), ctx.node);
    EXPECT_EQ(ctx.topology, &team.topology());
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0u), 8u);
  for (uint32_t w = 0; w < 8; ++w) {
    EXPECT_EQ(nodes[w], topo.NodeForWorker(w, 8));
  }
}

TEST(WorkerTeamTest, PhaseScopeAccumulatesTime) {
  const auto topo = numa::Topology::Simulated(1, 4);
  WorkerTeam team(topo, 4);
  team.Run([&](WorkerContext& ctx) {
    {
      PhaseScope scope(ctx, kPhaseSortPublic);
      volatile uint64_t sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + i;
    }
    ctx.Counters(kPhaseJoin).output_tuples = ctx.worker_id;
  });
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_GT(team.stats(w).phase_seconds[kPhaseSortPublic], 0.0);
    EXPECT_EQ(team.stats(w).phase_counters[kPhaseJoin].output_tuples, w);
  }
  const auto aggregate = team.AggregateStats();
  EXPECT_EQ(aggregate.TotalCounters().output_tuples, 0u + 1 + 2 + 3);
  EXPECT_GT(team.CriticalPathSeconds(), 0.0);
}

TEST(WorkerTeamTest, StatsResetBetweenRuns) {
  const auto topo = numa::Topology::Simulated(1, 2);
  WorkerTeam team(topo, 2);
  team.Run([](WorkerContext& ctx) {
    ctx.Counters(kPhaseJoin).output_tuples = 5;
  });
  team.Run([](WorkerContext&) {});
  EXPECT_EQ(team.AggregateStats().TotalCounters().output_tuples, 0u);
}

TEST(WorkerTeamTest, BarrierSynchronizesPhases) {
  const auto topo = numa::Topology::Simulated(2, 2);
  WorkerTeam team(topo, 4);
  std::atomic<int> phase1_done{0};
  std::atomic<bool> violated{false};
  team.Run([&](WorkerContext& ctx) {
    phase1_done.fetch_add(1);
    ctx.barrier->Wait();
    if (phase1_done.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated);
}

// ------------------------------------------------ relations and runs

TEST(RelationTest, ChunkSizesBalanced) {
  const auto topo = numa::Topology::Simulated(2, 2);
  const auto rel = Relation::Allocate(topo, 10, 4);
  EXPECT_EQ(rel.size(), 10u);
  EXPECT_EQ(rel.num_chunks(), 4u);
  // 10 = 3 + 3 + 2 + 2.
  EXPECT_EQ(rel.chunk(0).size, 3u);
  EXPECT_EQ(rel.chunk(1).size, 3u);
  EXPECT_EQ(rel.chunk(2).size, 2u);
  EXPECT_EQ(rel.chunk(3).size, 2u);
  size_t total = 0;
  for (uint32_t c = 0; c < 4; ++c) total += rel.chunk(c).size;
  EXPECT_EQ(total, 10u);
}

TEST(RelationTest, GlobalAtCrossesChunks) {
  const auto topo = numa::Topology::Simulated(1, 1);
  auto rel = Relation::Allocate(topo, 10, 3);
  for (uint32_t c = 0, v = 0; c < 3; ++c) {
    for (size_t i = 0; i < rel.chunk(c).size; ++i, ++v) {
      rel.chunk(c).data[i] = Tuple{v, v};
    }
  }
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(rel.At(i).key, i);
  EXPECT_EQ(rel.ToVector().size(), 10u);
}

TEST(RelationTest, FromVector) {
  auto rel = Relation::FromVector({{1, 2}, {3, 4}});
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.num_chunks(), 1u);
  EXPECT_EQ(rel.At(1).key, 3u);
}

TEST(RunTest, SortedCheckAndTotals) {
  std::vector<Tuple> sorted = {{1, 0}, {2, 0}, {2, 0}};
  std::vector<Tuple> unsorted = {{2, 0}, {1, 0}};
  ::mpsm::Run a{sorted.data(), sorted.size(), 0};
  ::mpsm::Run b{unsorted.data(), unsorted.size(), 1};
  EXPECT_TRUE(IsSortedRun(a));
  EXPECT_FALSE(IsSortedRun(b));
  EXPECT_EQ(a.MinKey(), 1u);
  EXPECT_EQ(a.MaxKey(), 2u);
  EXPECT_EQ(TotalSize({a, b}), 5u);
}

}  // namespace
}  // namespace mpsm

#include "core/p_mpsm.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "core/merge_join.h"
#include "core/public_runs.h"
#include "core/run_generation.h"
#include "parallel/task_scheduler.h"
#include "partition/equi_height.h"
#include "partition/prefix_scatter.h"
#include "partition/radix_histogram.h"
#include "simd/caps.h"
#include "simd/histogram_kernels.h"
#include "sort/radix_introsort.h"
#include "util/bits.h"
#include "util/timer.h"

namespace mpsm {

uint32_t PMpsmJoin::EffectiveRadixBits(uint32_t team_size) const {
  if (options_.radix_bits != 0) {
    // B must be at least log2(T) so that T partitions are expressible.
    return std::max(options_.radix_bits, bits::Log2Ceil(team_size));
  }
  const uint32_t log_t = bits::Log2Ceil(std::max(team_size, 2u));
  return std::min(18u, std::max(log_t + 5, 10u));
}

namespace {

/// State shared by all workers of one execution. Each morsel writes
/// only its own slots; the cross-task combines happen in the
/// pipeline's serial steps between barriers.
struct SharedState {
  // Phase 1 products (copied views of shared_public when supplied).
  RunSet s_runs;
  std::vector<EquiHeightHistogram> s_histograms;
  RunGenState s_gen;

  // The private input sliced into scatter blocks; one plan row each.
  // Static scheduling keeps one block per chunk (the paper's layout:
  // row w == worker w); stealing slices to ~morsel_tuples.
  std::vector<ScatterBlock> blocks;

  // Phase 2.2 products, per block.
  std::vector<KeyRange> block_ranges;
  std::vector<uint8_t> block_has_data;
  std::vector<RadixHistogram> block_histograms;

  // Phase 2.1 / 2.3 products (built in serial steps).
  Cdf cdf;
  KeyNormalizer normalizer;
  Splitters splitters;
  std::vector<std::vector<uint64_t>> block_partition_hist;
  ScatterPlan plan;  // rows = blocks, columns = partitions

  // Scatter targets: partition p's array, owned by worker p's node.
  std::vector<Tuple*> partition_data;

  // Write-combining staging buffers, tagged with the *destination*:
  // wc_buffers[executor][p] comes from partition p's arena (allocated
  // by worker p in the pinned 2.3b phase). Empty when the scatter
  // cannot resolve to write combining.
  std::vector<std::vector<internal::WcBuffer*>> wc_buffers;

  // Phase-3/4 morsel slice, resolved in the 2.3a serial step once the
  // partition sizes are known (morsel_tuples == 0 adapts to their
  // variance, docs/scheduler.md).
  uint64_t partition_morsel_tuples = kDefaultMorselTuples;

  // Phase 3 products.
  RunSet r_runs;
  // Stealing mode splits an oversized partition sort into one MSD pass
  // plus stealable bucket-sort morsels; the pass's bucket bounds and
  // shift live here between the two sub-phases (core/run_generation.h).
  RunGenState r_gen;
};

}  // namespace

Result<JoinRunInfo> PMpsmJoin::Execute(WorkerTeam& team,
                                       const Relation& r_private,
                                       const Relation& s_public,
                                       ConsumerFactory& consumers,
                                       PMpsmDiagnostics* diagnostics,
                                       const PublicRuns* shared_public) const {
  const uint32_t num_workers = team.size();
  if (r_private.num_chunks() != num_workers ||
      s_public.num_chunks() != num_workers) {
    return Status::InvalidArgument(
        "relations must be chunked into team.size() chunks");
  }
  // Shared runs may exceed the team size: a run-cache view appends
  // sorted delta runs after the per-worker base runs (merge-on-read,
  // docs/cache.md), and phase 4 already joins each private run against
  // every public run. The *base* runs must still come from a team of
  // this exact size (their chunking fixes the per-run key coverage);
  // fewer runs than workers would leave phase-4 scripts without a home
  // run.
  if (shared_public != nullptr &&
      (shared_public->runs.size() < num_workers ||
       shared_public->histograms.size() != shared_public->runs.size() ||
       (shared_public->team_size != 0 &&
        shared_public->team_size != num_workers))) {
    return Status::InvalidArgument(
        "shared public runs were built for a different team size");
  }
  const uint32_t radix_bits = EffectiveRadixBits(num_workers);
  const uint32_t num_bounds =
      std::max(1u, options_.equi_height_factor * num_workers);
  const MpsmOptions options = options_;
  const bool stealing = options.scheduler == SchedulerKind::kStealing;

  SharedState shared;
  shared.s_runs.resize(num_workers);
  shared.s_histograms.resize(num_workers);
  std::vector<uint64_t> chunk_sizes(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    chunk_sizes[w] = r_private.chunk(w).size;
  }
  // Phase-2 slicing sees only the chunk sizes (partitions do not exist
  // yet); the phase-3/4 slice is re-resolved from the partition sizes.
  const uint64_t chunk_morsel_tuples = ResolveMorselTuples(
      options.morsel_tuples, chunk_sizes.data(), chunk_sizes.size());
  for (uint32_t w = 0; w < num_workers; ++w) {
    const uint64_t chunk_size = chunk_sizes[w];
    const uint64_t slice = stealing ? chunk_morsel_tuples : chunk_size;
    for (const auto& [begin, end] : SliceRanges(chunk_size, slice)) {
      shared.blocks.push_back(ScatterBlock{w, begin, end});
    }
  }
  const uint32_t num_blocks = static_cast<uint32_t>(shared.blocks.size());
  shared.block_ranges.resize(num_blocks);
  shared.block_has_data.assign(num_blocks, 0);
  shared.block_histograms.resize(num_blocks);
  shared.partition_data.resize(num_workers, nullptr);
  // Destination-homed WC staging only when a block can actually
  // resolve to write combining (explicit, or auto at crossover
  // fan-out); T x T buffers of 256 B.
  if (options.scatter == ScatterKind::kWriteCombining ||
      (options.scatter == ScatterKind::kAuto &&
       num_workers >= kScatterAutoFanoutCrossover)) {
    shared.wc_buffers.assign(
        num_workers,
        std::vector<internal::WcBuffer*>(num_workers, nullptr));
  }
  shared.r_runs.resize(num_workers);
  shared.r_gen.Resize(num_workers);

  // Runs, partitions and WC staging all die with the query. They live
  // in the session team's worker arenas, rewound here so this query
  // reuses the pages the previous one faulted in (numa/arena.h).
  for (uint32_t w = 0; w < num_workers; ++w) team.ArenaOf(w).Reset();

  const auto chunk_morsels = [num_workers] { return ChunkMorsels(num_workers); };
  const auto block_morsels = [&shared] {
    std::vector<Morsel> morsels;
    morsels.reserve(shared.blocks.size());
    for (uint32_t b = 0; b < shared.blocks.size(); ++b) {
      morsels.push_back(Morsel{shared.blocks[b].chunk, b, 0, 0});
    }
    return morsels;
  };

  PhasePipeline pipeline(team.topology(), num_workers, options.scheduler);

  // ---------------------------------------------------- phase 1
  // Sort the public chunks into local runs; derive the equi-height
  // histograms from the sorted runs (nearly free, §4.1). The shared
  // run-generation steps (core/run_generation.h) slice below chunk
  // granularity under stealing. Mandatory closing barrier: runs +
  // histograms complete before phase 2 reads them. When the caller
  // supplies pre-built shared runs (the service's shared-sort
  // batching, core/public_runs.h), phase 1 vanishes: the run views and
  // histograms are copied in before the pipeline starts.
  if (shared_public != nullptr) {
    shared.s_runs = shared_public->runs;
    shared.s_histograms = shared_public->histograms;
  } else {
    AddRunGenerationPhases(
        pipeline, kPhaseSortPublic, s_public,
        [&team](uint32_t w) -> numa::Arena& { return team.ArenaOf(w); },
        shared.s_runs, shared.s_gen, &shared.s_histograms, num_bounds,
        options.scheduler, options.sort_config, options.morsel_tuples);
  }

  // ---------------------------------------------------- phase 2
  // Phase 2.2a: private key ranges (one sequential pass per block).
  pipeline.AddPhase(
      kPhasePartition, block_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const ScatterBlock& block = shared.blocks[morsel.task];
        const Chunk& chunk = r_private.chunk(block.chunk);
        const uint64_t size = block.end - block.begin;
        shared.block_ranges[morsel.task] =
            ScanKeyRange(chunk.data + block.begin, size, options.simd);
        shared.block_has_data[morsel.task] = size > 0;
        ctx.Counters(kPhasePartition)
            .CountRead(chunk.node == ctx.node, /*sequential=*/true,
                       size * sizeof(Tuple));
      });

  // Phase 2.1 + key-range merge (cheap single-threaded).
  pipeline.AddSerial(kPhasePartition, [&](WorkerContext&) {
    shared.cdf = Cdf::FromHistograms(shared.s_histograms);
    KeyRange global{};
    bool any = false;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      if (!shared.block_has_data[b]) continue;
      global = any ? MergeKeyRanges(global, shared.block_ranges[b])
                   : shared.block_ranges[b];
      any = true;
    }
    shared.normalizer =
        KeyNormalizer(any ? global.min_key : 0, any ? global.max_key : 0,
                      radix_bits);
  });

  // Phase 2.2b: B-bit radix histogram of each block.
  pipeline.AddPhase(
      kPhasePartition, block_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const ScatterBlock& block = shared.blocks[morsel.task];
        const Chunk& chunk = r_private.chunk(block.chunk);
        const uint64_t size = block.end - block.begin;
        shared.block_histograms[morsel.task] = BuildRadixHistogram(
            chunk.data + block.begin, size, shared.normalizer,
            options.simd);
        ctx.Counters(kPhasePartition)
            .CountRead(chunk.node == ctx.node, /*sequential=*/true,
                       size * sizeof(Tuple));
      });

  // Phase 2.3a: splitters + prefix-sum scatter plan over blocks.
  pipeline.AddSerial(kPhasePartition, [&](WorkerContext& ctx) {
    const RadixHistogram global_r =
        CombineHistograms(shared.block_histograms);
    std::vector<double> cluster_s;
    PartitionCostFn cost;
    if (options.cost_balanced_splitters) {
      cluster_s = EstimateClusterS(shared.normalizer, shared.cdf);
      cost = MakePMpsmCost(ctx.team_size);
    } else {
      cost = MakeEquiHeightRCost();
    }
    shared.splitters =
        ComputeSplitters(global_r, cluster_s, ctx.team_size, cost);

    // Per-block histograms over target partitions: one plan row per
    // block, so every scatter morsel owns disjoint target ranges.
    shared.block_partition_hist.assign(
        num_blocks, std::vector<uint64_t>(ctx.team_size, 0));
    for (uint32_t b = 0; b < num_blocks; ++b) {
      for (size_t c = 0; c < shared.block_histograms[b].size(); ++c) {
        shared.block_partition_hist
            [b][shared.splitters.PartitionOfCluster(
                static_cast<uint32_t>(c))] += shared.block_histograms[b][c];
      }
    }
    shared.plan = ComputeScatterPlan(shared.block_partition_hist);
    // Phases 3/4 slice range partitions, whose sizes are now known:
    // re-resolve the adaptive morsel slice against their variance.
    shared.partition_morsel_tuples = ResolveMorselTuples(
        options.morsel_tuples, shared.plan.partition_sizes.data(),
        shared.plan.partition_sizes.size());

#ifndef NDEBUG
    // The morsel slicing must cover each chunk exactly once (no tuple
    // scattered twice, none dropped) and the plan rows must match it —
    // the invariants the synchronization-free scatter rests on.
    assert(ScatterBlocksTileChunks(shared.blocks, chunk_sizes));
    assert(ScatterPlanIsConsistent(shared.plan,
                                   shared.block_partition_hist));
#endif
  });

  // Phase 2.3b: allocate the partition arrays from partition w's
  // arena, pinned to worker w even under stealing. Allocation touches
  // no page: a page lands on the node of its first write (the scatter
  // below), and the session arena keeps it there for later queries.
  // The same pinned slot allocates partition w's column of WC staging
  // buffers (one per potential executor) from w's arena.
  pipeline.AddPhase(
      kPhasePartition, chunk_morsels,
      [&](WorkerContext&, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        const uint64_t size =
            shared.plan.partition_sizes.empty()
                ? 0
                : shared.plan.partition_sizes[w];
        numa::Arena& arena = team.ArenaOf(w);
        if (size > 0) {
          shared.partition_data[w] = arena.AllocateArray<Tuple>(size);
        }
        if (!shared.wc_buffers.empty()) {
          internal::WcBuffer* column =
              arena.AllocateArray<internal::WcBuffer>(num_workers);
          for (uint32_t e = 0; e < num_workers; ++e) {
            shared.wc_buffers[e][w] = column + e;
          }
        }
      },
      PhasePipeline::PhaseOptions{.pinned = true});

  // Phase 2.3c: scatter. Every block writes sequentially into its
  // precomputed sub-partitions — synchronization-free (Figure 6) even
  // across stolen morsels, because each plan row is block-private.
  pipeline.AddPhase(
      kPhasePartition, block_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t b = morsel.task;
        const ScatterBlock& block = shared.blocks[b];
        const Chunk& chunk = r_private.chunk(block.chunk);
        const uint64_t size = block.end - block.begin;
        if (size == 0) return;
        PerfCounters& counters = ctx.Counters(kPhasePartition);
        std::vector<uint64_t> cursor = shared.plan.start_offset[b];
        const KeyNormalizer& normalizer = shared.normalizer;
        const Splitters& splitters = shared.splitters;
        const ScatterKind scatter =
            ResolveScatterKind(options.scatter, size, ctx.team_size);
        internal::WcBuffer* const* staged =
            shared.wc_buffers.empty()
                ? nullptr
                : shared.wc_buffers[ctx.worker_id].data();
        // The per-tuple partition digit is a subtract-shift-clamp plus
        // a splitter-vector lookup. Under a vector ISA the arithmetic
        // part runs vectorized over the whole block first
        // (simd::ClusterDigits) and the scatter consumes the digit
        // stream in step — both scatter kernels visit tuples strictly
        // in source order, exactly once. A scalar-resolved ISA keeps
        // the fused loop: a scalar precompute pass would only add a
        // second trip over the block.
        if (simd::Resolve(options.simd) != simd::SimdKind::kScalar) {
          std::vector<uint32_t> digits(size);
          simd::ClusterDigits(chunk.data + block.begin, size,
                              normalizer.min_key(), normalizer.shift(),
                              normalizer.num_clusters(), digits.data(),
                              options.simd);
          const uint32_t* next_digit = digits.data();
          ScatterChunkWith(
              scatter, chunk.data + block.begin, size,
              [&](uint64_t) {
                return splitters.PartitionOfCluster(*next_digit++);
              },
              shared.partition_data.data(), cursor.data(), ctx.team_size,
              staged);
        } else {
          ScatterChunkWith(
              scatter, chunk.data + block.begin, size,
              [&](uint64_t key) {
                return splitters.PartitionOfCluster(normalizer.Cluster(key));
              },
              shared.partition_data.data(), cursor.data(), ctx.team_size,
              staged);
        }
        counters.CountRead(chunk.node == ctx.node, /*sequential=*/true,
                           size * sizeof(Tuple));
        // Classify written bytes per target partition's node. The
        // scalar scatter maintains T open write streams — the pattern
        // Figure 1 exp. 2 measured, charged at the calibrated
        // random-write rate. Write combining flushes line-sized bursts
        // instead, so it is charged at the sequential rate to keep the
        // model in step with the measured behavior (docs/tuning.md).
        const bool combined_writes =
            scatter == ScatterKind::kWriteCombining;
        for (uint32_t p = 0; p < ctx.team_size; ++p) {
          const uint64_t written =
              cursor[p] - shared.plan.start_offset[b][p];
          const numa::NodeId target_node =
              ctx.topology->NodeForWorker(p, ctx.team_size);
          counters.CountWrite(target_node == ctx.node,
                              /*sequential=*/combined_writes,
                              written * sizeof(Tuple));
        }
      });

  // ---------------------------------------------------- phase 3
  // Sort each range partition into the private run. Static mode sorts
  // partition w whole on worker w (the paper's script). Stealing mode
  // splits oversized partitions: one MSD radix pass per partition
  // (morsel below), then stealable bucket-sort morsels (next phase) so
  // idle workers absorb a hot partition's sort.
  pipeline.AddPhase(
      kPhaseSortPrivate, chunk_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        PerfCounters& counters = ctx.Counters(kPhaseSortPrivate);
        Run& run = shared.r_runs[w];
        run.data = shared.partition_data[w];
        run.size = shared.plan.partition_sizes.empty()
                       ? 0
                       : shared.plan.partition_sizes[w];
        run.node = team.topology().NodeForWorker(w, num_workers);
        if (run.size == 0) return;
        const uint64_t split_threshold =
            std::max<uint64_t>(2 * shared.partition_morsel_tuples,
                               2 * sort::kRadixBuckets);
        const bool split = stealing && run.size > split_threshold;
        if (!split) {
          sort::SortTuples(run.data, run.size, options.sort_config);
          counters.CountSort(run.size);
          return;
        }
        uint64_t min_key = 0;
        uint64_t max_key = 0;
        simd::KeyMinMax(run.data, run.size, &min_key, &max_key,
                        options.sort_config.simd);
        shared.r_gen.shift[w] = sort::RadixShiftForMaxKey(max_key);
        shared.r_gen.bounds[w] = sort::MsdRadixPartition(
            run.data, run.size, shared.r_gen.shift[w],
            options.sort_config.simd);
        shared.r_gen.split[w] = 1;
        // One 256-way pass fixes 8 key bits: charge 8 n*log units; the
        // bucket morsels charge the rest (CountSort per bucket).
        counters.sort_tuple_logs += uint64_t{8} * run.size;
      });

  if (stealing) {
    // Phase 3 (continued): bucket-sort morsels of the split partitions
    // (shared helpers, core/run_generation.h).
    pipeline.AddPhase(
        kPhaseSortPrivate,
        [&] {
          return BucketSortMorsels(shared.r_gen,
                                   shared.partition_morsel_tuples);
        },
        [&](WorkerContext& ctx, const Morsel& morsel) {
          SortRunBuckets(shared.r_runs[morsel.task], shared.r_gen, morsel,
                         options.sort_config,
                         ctx.Counters(kPhaseSortPrivate));
        },
        PhasePipeline::PhaseOptions{.eager = false});
  }

  // ---------------------------------------------------- phase 4
  RunJoinOptions join_options;
  join_options.kind = options.kind;
  join_options.search = options.start_search;
  join_options.simd = options.simd;
  if (!stealing) {
    pipeline.AddPhase(
        kPhaseJoin, chunk_morsels,
        [&](WorkerContext& ctx, const Morsel& morsel) {
          JoinPrivateAgainstRuns(shared.r_runs[morsel.task], shared.s_runs,
                                 /*first_run=*/morsel.task, join_options,
                                 consumers.ConsumerForWorker(ctx.worker_id),
                                 ctx.node, &ctx.Counters(kPhaseJoin));
        });
  } else {
    pipeline.AddPhase(
        kPhaseJoin,
        [&] {
          // s_runs.size() (not num_workers): cache views append delta
          // runs past the per-worker base runs, and each needs a
          // (private run x public run) morsel family.
          return MergeJoinMorsels(
              shared.r_runs, static_cast<uint32_t>(shared.s_runs.size()),
              options.kind, shared.partition_morsel_tuples);
        },
        [&](WorkerContext& ctx, const Morsel& morsel) {
          ExecuteMergeJoinMorsel(morsel, shared.r_runs, shared.s_runs,
                                 join_options,
                                 consumers.ConsumerForWorker(ctx.worker_id),
                                 ctx.node, &ctx.Counters(kPhaseJoin));
        },
        PhasePipeline::PhaseOptions{.eager = false});
  }

  WallTimer timer;
  pipeline.Run(team);

  if (diagnostics != nullptr) {
    diagnostics->normalizer = shared.normalizer;
    diagnostics->cdf = shared.cdf;
    diagnostics->splitters = shared.splitters;
    diagnostics->partition_sizes = shared.plan.partition_sizes;
  }
  return CollectRunInfo(team, timer.ElapsedSeconds());
}

}  // namespace mpsm

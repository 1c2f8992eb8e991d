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
  // A static block is a whole chunk (the paper's layout: row w ==
  // worker w); stealing slices to ~kMorselTuples, at least
  // kFlushesPerSegment staging flushes per segment.
  std::vector<ScatterBlock> blocks;

  // Phase 2.2 products, per block.
  std::vector<KeyRange> block_ranges;
  std::vector<uint8_t> block_has_data;
  std::vector<RadixHistogram> block_histograms;

  // Phase 2.1 / 2.3a products (built in serial steps).
  Cdf cdf;
  KeyNormalizer normalizer;
  Splitters splitters;
  // The sort segments in key order: segment s starts at radix cluster
  // segment_first_cluster[s]; partition p holds segments
  // [first_segment[p], first_segment[p + 1]), back to back.
  std::vector<uint32_t> segment_of_cluster;
  std::vector<uint32_t> segment_first_cluster;
  std::vector<uint32_t> first_segment;
  ScatterPlan plan;  // rows = blocks, columns = segments

  // Scatter targets: segment s's first slot in its partition's run,
  // which worker p's arena holds for partition p.
  std::vector<Tuple*> segment_data;

  // Write-combining staging buffers, tagged with the *destination*:
  // wc_buffers[executor][s] comes from the arena of s's partition
  // (allocated by its worker in the pinned 2.3b phase). Empty when the
  // scatter cannot resolve to write combining.
  std::vector<std::vector<internal::WcBuffer*>> wc_buffers;

  // Phase 3 products: run p is partition p, sorted in place.
  RunSet r_runs;
};

// A sort segment closes once it holds max(kSegmentMinTuples,
// |R| / kSegmentsBySize) tuples: few enough segments that every
// (block, segment) pair of the scatter fills several staging buffers,
// small enough that one segment and its LSD scratch sit in L2.
constexpr uint64_t kSegmentMinTuples = uint64_t{1} << 11;
constexpr uint64_t kSegmentsBySize = uint64_t{1} << 10;
// Staging flushes per (block, segment) pair a stealing-mode scatter
// block is sized for.
constexpr uint64_t kFlushesPerSegment = 8;

// Upper bound on the segment count for |R| = r_tuples and T = team
// size, whatever the radix bits: each segment closed by size holds at
// least the floor, and the others end a partition.
uint64_t MaxSortSegments(uint64_t r_tuples, uint32_t team_size) {
  return std::min(r_tuples / kSegmentMinTuples, kSegmentsBySize) + team_size;
}

// Phase 2.3a: walks the clusters in key order and cuts them into sort
// segments — at every partition change, and wherever the open segment
// already holds the floor. Fills the segment layout of `shared` and
// returns each segment's size.
std::vector<uint64_t> CutSortSegments(const RadixHistogram& global_r,
                                      uint64_t r_tuples, uint32_t team_size,
                                      SharedState& shared) {
  const uint64_t size_floor =
      std::max(kSegmentMinTuples, r_tuples / kSegmentsBySize);
  std::vector<uint64_t> sizes;
  shared.segment_of_cluster.resize(global_r.size());
  shared.segment_first_cluster.clear();
  // Segments per partition first, prefix-summed into the index of
  // each partition's first segment below.
  shared.first_segment.assign(team_size + 1, 0);
  uint32_t open_partition = 0;
  for (uint32_t c = 0; c < global_r.size(); ++c) {
    const uint32_t p = shared.splitters.PartitionOfCluster(c);
    if (sizes.empty() || p != open_partition || sizes.back() >= size_floor) {
      shared.segment_first_cluster.push_back(c);
      sizes.push_back(0);
      ++shared.first_segment[p + 1];
      open_partition = p;
    }
    shared.segment_of_cluster[c] = static_cast<uint32_t>(sizes.size() - 1);
    sizes.back() += global_r[c];
  }
  for (uint32_t p = 0; p < team_size; ++p) {
    shared.first_segment[p + 1] += shared.first_segment[p];
  }
  assert(sizes.size() <= MaxSortSegments(r_tuples, team_size));
  return sizes;
}

// Inclusive key range [low, last] of segment s, as low and the bit
// width of last - low: from its first cluster's low key to one below
// the next segment's, or to max_key when the segment reaches the
// cluster of max_key (later clusters hold no key of R).
std::pair<uint64_t, uint32_t> SegmentKeyRange(const SharedState& shared,
                                              uint32_t s) {
  const KeyNormalizer& normalizer = shared.normalizer;
  const std::vector<uint32_t>& first_cluster = shared.segment_first_cluster;
  const uint64_t low = normalizer.ClusterLowKey(first_cluster[s]);
  uint64_t last = normalizer.max_key();
  if (s + 1 < first_cluster.size() &&
      first_cluster[s + 1] <= normalizer.Cluster(last)) {
    last = normalizer.ClusterLowKey(first_cluster[s + 1]) - 1;
  }
  return {low, bits::BitWidth(last - low)};
}

// Phase-3 morsels: runs of consecutive segments of one non-empty
// partition holding about `slice` tuples (a whole-task slice spans the
// partition), homed on the partition's worker (task = partition,
// [begin, end) = segments).
std::vector<Morsel> SegmentSortMorsels(const SharedState& shared,
                                       uint64_t slice) {
  std::vector<Morsel> morsels;
  const std::vector<uint32_t>& first = shared.first_segment;
  for (uint32_t p = 0; p + 1 < first.size(); ++p) {
    uint32_t begin = first[p];
    uint64_t acc = 0;
    for (uint32_t s = first[p]; s < first[p + 1]; ++s) {
      acc += shared.plan.partition_sizes[s];
      if (acc >= slice || s + 1 == first[p + 1]) {
        if (acc > 0) morsels.push_back(Morsel{p, p, begin, s + 1});
        begin = s + 1;
        acc = 0;
      }
    }
  }
  return morsels;
}

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
  const MpsmOptions options = options_;
  // Every phase runs one morsel plan; the scheduler picks the slice
  // (whole tasks under static) and the dispatch.
  const uint64_t slice = MorselSlice(options.scheduler);

  SharedState shared;
  shared.s_runs.resize(num_workers);
  shared.s_histograms.resize(num_workers);
  std::vector<uint64_t> chunk_sizes(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    chunk_sizes[w] = r_private.chunk(w).size;
  }
  // A sliced block is large enough that each of its (block, segment)
  // pairs fills several write-combining buffers.
  const uint64_t block_tuples =
      std::max(slice, MaxSortSegments(r_private.size(), num_workers) *
                          kFlushesPerSegment * kWcBufferTuples);
  for (uint32_t w = 0; w < num_workers; ++w) {
    for (const auto& [begin, end] : SliceRanges(chunk_sizes[w], block_tuples)) {
      shared.blocks.push_back(ScatterBlock{w, begin, end});
    }
  }
  const uint32_t num_blocks = static_cast<uint32_t>(shared.blocks.size());
  shared.block_ranges.resize(num_blocks);
  shared.block_has_data.assign(num_blocks, 0);
  shared.block_histograms.resize(num_blocks);
  shared.r_runs.resize(num_workers);

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
        shared.s_runs, shared.s_gen, &shared.s_histograms,
        options.scheduler);
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
            ScanKeyRange(chunk.data + block.begin, size);
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
            chunk.data + block.begin, size, shared.normalizer);
        ctx.Counters(kPhasePartition)
            .CountRead(chunk.node == ctx.node, /*sequential=*/true,
                       size * sizeof(Tuple));
      });

  // Phase 2.3a: splitters, sort segments, and the prefix-sum scatter
  // plan over blocks x segments.
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
    const std::vector<uint64_t> segment_sizes =
        CutSortSegments(global_r, r_private.size(), ctx.team_size, shared);
    const uint32_t num_segments =
        static_cast<uint32_t>(segment_sizes.size());

    // Per-block histograms over the segments: one plan row per block,
    // so every scatter morsel owns disjoint target ranges.
    std::vector<std::vector<uint64_t>> block_segment_hist(
        num_blocks, std::vector<uint64_t>(num_segments, 0));
    for (uint32_t b = 0; b < num_blocks; ++b) {
      for (size_t c = 0; c < shared.block_histograms[b].size(); ++c) {
        block_segment_hist[b][shared.segment_of_cluster[c]] +=
            shared.block_histograms[b][c];
      }
    }
    shared.plan = ComputeScatterPlan(block_segment_hist);
    shared.segment_data.assign(num_segments, nullptr);
    // Destination-homed WC staging only when a block can actually
    // resolve to write combining (crossover fan-out); T buffers of
    // 256 B per segment.
    if (num_segments >= kScatterAutoFanoutCrossover) {
      shared.wc_buffers.assign(
          ctx.team_size,
          std::vector<internal::WcBuffer*>(num_segments, nullptr));
    }

#ifndef NDEBUG
    // The morsel slicing must cover each chunk exactly once (no tuple
    // scattered twice, none dropped) and the plan rows must match it —
    // the invariants the synchronization-free scatter rests on.
    assert(ScatterBlocksTileChunks(shared.blocks, chunk_sizes));
    assert(ScatterPlanIsConsistent(shared.plan, block_segment_hist));
    assert(shared.plan.partition_sizes == segment_sizes);
#endif
  });

  // Phase 2.3b: allocate partition w's run from w's arena, pinned to
  // worker w even under stealing, and point each of w's segments at
  // its slot in it. Allocation touches no page: a page lands on the
  // node of its first write (the scatter below), and the session arena
  // keeps it there for later queries. The same pinned slot allocates
  // the WC staging buffers of w's segments (one per potential
  // executor) from w's arena.
  pipeline.AddPhase(
      kPhasePartition, chunk_morsels,
      [&](WorkerContext&, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        numa::Arena& arena = team.ArenaOf(w);
        Run& run = shared.r_runs[w];
        run.size = shared.splitters.partition_r_sizes[w];
        run.node = team.topology().NodeForWorker(w, num_workers);
        if (run.size > 0) run.data = arena.AllocateArray<Tuple>(run.size);
        const uint32_t first = shared.first_segment[w];
        const uint32_t count = shared.first_segment[w + 1] - first;
        uint64_t offset = 0;
        for (uint32_t s = first; s < first + count; ++s) {
          shared.segment_data[s] = run.data + offset;
          offset += shared.plan.partition_sizes[s];
        }
        if (!shared.wc_buffers.empty() && count > 0) {
          internal::WcBuffer* buffers =
              arena.AllocateArray<internal::WcBuffer>(uint64_t{num_workers} *
                                                      count);
          for (uint32_t e = 0; e < num_workers; ++e) {
            for (uint32_t i = 0; i < count; ++i) {
              shared.wc_buffers[e][first + i] = buffers + e * count + i;
            }
          }
        }
      },
      PhasePipeline::PhaseOptions{.pinned = true});

  // Phase 2.3c: scatter. Every block writes sequentially into its
  // precomputed sub-ranges of each segment — synchronization-free
  // (Figure 6) even across stolen morsels, because each plan row is
  // block-private. A tuple's segment is its cluster's (one
  // subtract-shift-clamp and one table lookup).
  pipeline.AddPhase(
      kPhasePartition, block_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t b = morsel.task;
        const ScatterBlock& block = shared.blocks[b];
        const Chunk& chunk = r_private.chunk(block.chunk);
        const uint64_t size = block.end - block.begin;
        if (size == 0) return;
        PerfCounters& counters = ctx.Counters(kPhasePartition);
        const std::vector<uint64_t>& start = shared.plan.start_offset[b];
        std::vector<uint64_t> cursor = start;
        const uint32_t num_segments = shared.plan.num_partitions();
        // The fan-out picks the kernel: write combining at the
        // ~100-segment crossover, the scalar loop below it
        // (docs/tuning.md).
        const ScatterKind scatter =
            ResolveScatterKind(ScatterKind::kAuto, size, num_segments);
        internal::WcBuffer* const* staged =
            shared.wc_buffers.empty()
                ? nullptr
                : shared.wc_buffers[ctx.worker_id].data();
        const KeyNormalizer normalizer = shared.normalizer;
        const uint32_t* segment_of = shared.segment_of_cluster.data();
        ScatterChunkWith(
            scatter, chunk.data + block.begin, size,
            [normalizer, segment_of](uint64_t key) {
              return segment_of[normalizer.Cluster(key)];
            },
            shared.segment_data.data(), cursor.data(), num_segments, staged);
        counters.CountRead(chunk.node == ctx.node, /*sequential=*/true,
                           size * sizeof(Tuple));
        // Classify written bytes per target partition's node. The
        // scalar scatter keeps one open write stream per segment — the
        // pattern Figure 1 exp. 2 measured, charged at the calibrated
        // random-write rate. Write combining flushes line-sized bursts
        // instead, so it is charged at the sequential rate to keep the
        // model in step with the measured behavior (docs/tuning.md).
        const bool combined_writes =
            scatter == ScatterKind::kWriteCombining;
        for (uint32_t p = 0; p < ctx.team_size; ++p) {
          uint64_t written = 0;
          for (uint32_t s = shared.first_segment[p];
               s < shared.first_segment[p + 1]; ++s) {
            written += cursor[s] - start[s];
          }
          const numa::NodeId target_node =
              ctx.topology->NodeForWorker(p, ctx.team_size);
          counters.CountWrite(target_node == ctx.node,
                              /*sequential=*/combined_writes,
                              written * sizeof(Tuple));
        }
      });

  // ---------------------------------------------------- phase 3
  // Sort each segment in place: its keys lie in a known range, so LSD
  // passes over key - low finish it in cache (SortKeyRange), and the
  // partition, segments concatenated in key order, is a sorted run. A
  // morsel is a run of consecutive segments of one partition: under
  // static scheduling the whole partition on its worker (the paper's
  // script), under stealing ~kMorselTuples, so idle workers absorb a
  // hot partition's sort. Each segment charges n log2 |partition|:
  // together what sorting the partition whole charges. Lazy: the
  // segment layout comes from the 2.3a serial step.
  pipeline.AddPhase(
      kPhaseSortPrivate, [&] { return SegmentSortMorsels(shared, slice); },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        PerfCounters& counters = ctx.Counters(kPhaseSortPrivate);
        const uint64_t partition_size = shared.r_runs[morsel.task].size;
        for (uint64_t s = morsel.begin; s < morsel.end; ++s) {
          const uint64_t n = shared.plan.partition_sizes[s];
          const auto [low, bits] =
              SegmentKeyRange(shared, static_cast<uint32_t>(s));
          sort::SortKeyRange(shared.segment_data[s], n, low, bits);
          counters.CountSortSlice(n, partition_size);
        }
      },
      PhasePipeline::PhaseOptions{.eager = false});

  // ---------------------------------------------------- phase 4
  // One morsel per (private run i, public run j, slice of i), public
  // runs staggered per i (MergeJoinMorsels); a static worker thus
  // walks the paper's per-worker loop over j = i, i + 1, ... One morsel
  // family per public run: s_runs.size(), not num_workers, because
  // cache views append delta runs past the per-worker base runs.
  RunJoinOptions join_options;
  join_options.kind = options.kind;
  join_options.search = options.start_search;
  pipeline.AddPhase(
      kPhaseJoin,
      [&] {
        return MergeJoinMorsels(shared.r_runs,
                                static_cast<uint32_t>(shared.s_runs.size()),
                                options.kind, slice);
      },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        ExecuteMergeJoinMorsel(morsel, shared.r_runs, shared.s_runs,
                               join_options,
                               consumers.ConsumerForWorker(ctx.worker_id),
                               ctx.node, &ctx.Counters(kPhaseJoin));
      },
      PhasePipeline::PhaseOptions{.eager = false});

  WallTimer timer;
  pipeline.Run(team);

  if (diagnostics != nullptr) {
    diagnostics->normalizer = shared.normalizer;
    diagnostics->cdf = shared.cdf;
    diagnostics->splitters = shared.splitters;
    diagnostics->partition_sizes = shared.splitters.partition_r_sizes;
    diagnostics->segment_first_cluster = shared.segment_first_cluster;
    diagnostics->segment_sizes = shared.plan.partition_sizes;
    diagnostics->first_segment = shared.first_segment;
  }
  return CollectRunInfo(team, timer.ElapsedSeconds());
}

}  // namespace mpsm

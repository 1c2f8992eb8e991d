#include "baseline/radix_join.h"

#include <memory>
#include <vector>

#include "baseline/hash_table.h"
#include "parallel/task_scheduler.h"
#include "partition/prefix_scatter.h"
#include "simd/histogram_kernels.h"
#include "util/bits.h"
#include "util/timer.h"

namespace mpsm::baseline {

namespace {

/// Radix digit of a key for a partitioning pass: `bit_count` bits of
/// the key's hash starting at `bit_offset` from the top.
inline uint32_t HashDigit(uint64_t key, uint32_t bit_offset,
                          uint32_t bit_count) {
  return static_cast<uint32_t>((HashKey(key) << bit_offset) >>
                               (64 - bit_count));
}

/// Node that owns partition p under block-cyclic placement.
inline numa::NodeId PartitionNode(uint32_t p, uint32_t num_nodes) {
  return p % num_nodes;
}

/// A borrowed slice of tuples.
struct Slice {
  const Tuple* data;
  size_t size;
};

/// Fragment-local chained hash join: build on `r`, probe with `s`.
void FragmentHashJoin(Slice r, Slice s, JoinConsumer& consumer,
                      PerfCounters& counters,
                      std::vector<int32_t>& heads_scratch,
                      std::vector<int32_t>& next_scratch) {
  if (r.size == 0 || s.size == 0) return;
  const size_t bucket_count = bits::NextPowerOfTwo(2 * r.size);
  const uint64_t mask = bucket_count - 1;
  heads_scratch.assign(bucket_count, -1);
  next_scratch.resize(r.size);

  for (size_t i = 0; i < r.size; ++i) {
    const uint64_t b = HashKey(r.data[i].key) & mask;
    next_scratch[i] = heads_scratch[b];
    heads_scratch[b] = static_cast<int32_t>(i);
  }
  counters.hash_inserts += r.size;

  for (size_t j = 0; j < s.size; ++j) {
    const Tuple& probe = s.data[j];
    for (int32_t i = heads_scratch[HashKey(probe.key) & mask]; i >= 0;
         i = next_scratch[i]) {
      if (r.data[i].key == probe.key) {
        consumer.OnMatch(r.data[i], &probe, 1);
        ++counters.output_tuples;
      }
    }
  }
  counters.hash_probes += s.size;
  // Fragments are cache-sized by construction; charge one sequential
  // pass over both fragments.
  counters.CountRead(/*local=*/true, /*sequential=*/true,
                     (r.size + s.size) * sizeof(Tuple));
}

}  // namespace

std::pair<uint32_t, uint32_t> RadixHashJoin::EffectiveBits(size_t r_size) {
  const uint64_t fragments =
      bits::CeilDiv(std::max<size_t>(r_size, 1), kTargetFragmentTuples);
  uint32_t total = bits::Log2Ceil(std::max<uint64_t>(fragments, 2));
  total = std::min(total, 22u);
  // TLB-friendly first pass: at most 11 bits (2048 open write streams).
  const uint32_t pass1 = std::min(total, 11u);
  return {pass1, total - pass1};
}

Result<JoinRunInfo> RadixHashJoin::Execute(WorkerTeam& team,
                                           const Relation& r_build,
                                           const Relation& s_probe,
                                           ConsumerFactory& consumers) const {
  const uint32_t num_workers = team.size();
  if (r_build.num_chunks() != num_workers ||
      s_probe.num_chunks() != num_workers) {
    return Status::InvalidArgument(
        "relations must be chunked into team.size() chunks");
  }
  const auto [pass1_bits, pass2_bits] = EffectiveBits(r_build.size());
  const uint32_t p1 = 1u << pass1_bits;
  const uint32_t p2 = pass2_bits == 0 ? 1 : 1u << pass2_bits;
  const uint32_t num_nodes = team.topology().num_nodes();

  // Pass-1 output: one contiguous array per relation, partitions laid
  // out back to back (offsets from the scatter plan).
  std::vector<Tuple> r_out(r_build.size());
  std::vector<Tuple> s_out(s_probe.size());
  std::vector<std::vector<uint64_t>> r_hist(num_workers),
      s_hist(num_workers);
  ScatterPlan r_plan, s_plan;
  std::vector<uint64_t> r_part_offset(p1 + 1, 0), s_part_offset(p1 + 1, 0);

  // Per-worker pass-2 scratch (reused across claimed partitions).
  std::vector<std::vector<Tuple>> r_local(num_workers), s_local(num_workers);
  std::vector<std::vector<uint64_t>> r_sub(num_workers,
                                           std::vector<uint64_t>(p2 + 1)),
      s_sub(num_workers, std::vector<uint64_t>(p2 + 1));
  std::vector<std::vector<int32_t>> heads_scratch(num_workers),
      next_scratch(num_workers);

  const auto chunk_morsels = [num_workers] { return ChunkMorsels(num_workers); };

  // Always stealing: the pass-2/join partitions are the legacy dynamic
  // task counter, with locality-first dispatch (docs/scheduler.md).
  PhasePipeline pipeline(team.topology(), num_workers,
                         SchedulerKind::kStealing);

  // ---------------- pass 1: histograms ----------------
  pipeline.AddPhase(
      kPhasePartition, chunk_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        PerfCounters& counters = ctx.Counters(kPhasePartition);
        auto histogram = [&](const Chunk& chunk) {
          std::vector<uint64_t> h(p1, 0);
          simd::HashDigitHistogram(chunk.data, chunk.size, kHashMultiplier,
                                   /*bit_offset=*/0, pass1_bits, h.data(),
                                   simd::SimdKind::kAuto);
          counters.CountRead(chunk.node == ctx.node, /*sequential=*/true,
                             chunk.size * sizeof(Tuple));
          return h;
        };
        r_hist[w] = histogram(r_build.chunk(w));
        s_hist[w] = histogram(s_probe.chunk(w));
      });

  pipeline.AddSerial(kPhasePartition, [&](WorkerContext&) {
    r_plan = ComputeScatterPlan(r_hist);
    s_plan = ComputeScatterPlan(s_hist);
    for (uint32_t p = 0; p < p1; ++p) {
      r_part_offset[p + 1] = r_part_offset[p] + r_plan.partition_sizes[p];
      s_part_offset[p + 1] = s_part_offset[p] + s_plan.partition_sizes[p];
    }
  });

  // ---------------- pass 1: scatter (cross-NUMA) ----------------
  // Writes hop between 2^B1 open streams spread over all nodes — the
  // non-local partitioning the paper criticizes (Figure 2b). Plan rows
  // are per source chunk, so a stolen scatter morsel still writes only
  // chunk w's precomputed target ranges.
  pipeline.AddPhase(
      kPhasePartition, chunk_morsels,
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        PerfCounters& counters = ctx.Counters(kPhasePartition);
        auto scatter = [&](const Chunk& chunk, const ScatterPlan& plan,
                           const std::vector<uint64_t>& part_offset,
                           std::vector<Tuple>& out) {
          std::vector<Tuple*> dest(p1);
          std::vector<uint64_t> cursor(p1);
          for (uint32_t p = 0; p < p1; ++p) {
            dest[p] = out.data() + part_offset[p];
            cursor[p] = plan.start_offset[w][p];
          }
          // The 2^B1-way fan-out picks write combining at the
          // ~100-partition crossover (docs/tuning.md).
          const ScatterKind scatter_kind =
              ResolveScatterKind(ScatterKind::kAuto, chunk.size, p1);
          ScatterChunkWith(
              scatter_kind, chunk.data, chunk.size,
              [&](uint64_t key) { return HashDigit(key, 0, pass1_bits); },
              dest.data(), cursor.data(), p1);
          counters.CountRead(chunk.node == ctx.node, /*sequential=*/true,
                             chunk.size * sizeof(Tuple));
          // Scalar pass-1 writes hop between 2^B1 streams (random
          // rate); write combining batches them into line bursts
          // (sequential).
          const bool combined_writes =
              scatter_kind == ScatterKind::kWriteCombining;
          for (uint32_t p = 0; p < p1; ++p) {
            const uint64_t written = cursor[p] - plan.start_offset[w][p];
            counters.CountWrite(PartitionNode(p, num_nodes) == ctx.node,
                                /*sequential=*/combined_writes,
                                written * sizeof(Tuple));
          }
        };
        scatter(r_build.chunk(w), r_plan, r_part_offset, r_out);
        scatter(s_probe.chunk(w), s_plan, s_part_offset, s_out);
      });

  // ------- pass 2 (local sub-partitioning) + fragment joins -------
  // One morsel per pass-1 partition, homed on a worker of the node that
  // owns the partition (block-cyclic placement): the scheduler hands
  // each node its local partitions first and lets idle workers steal —
  // the legacy atomic task counter, upgraded with locality.
  std::vector<std::vector<uint32_t>> node_workers(
      team.topology().num_nodes());
  for (uint32_t w = 0; w < num_workers; ++w) {
    node_workers[team.topology().NodeForWorker(w, num_workers)].push_back(w);
  }
  pipeline.AddPhase(
      kPhaseJoin,
      [&] {
        std::vector<Morsel> morsels;
        morsels.reserve(p1);
        for (uint32_t p = 0; p < p1; ++p) {
          const auto& owners = node_workers[PartitionNode(p, num_nodes)];
          const uint32_t home = owners.empty()
                                    ? p % num_workers
                                    : owners[(p / num_nodes) % owners.size()];
          morsels.push_back(Morsel{home, p, 0, 0});
        }
        return morsels;
      },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = ctx.worker_id;
        const uint32_t p = morsel.task;
        JoinConsumer& consumer = consumers.ConsumerForWorker(w);

        const Slice r_part{r_out.data() + r_part_offset[p],
                           r_part_offset[p + 1] - r_part_offset[p]};
        const Slice s_part{s_out.data() + s_part_offset[p],
                           s_part_offset[p + 1] - s_part_offset[p]};
        const bool part_local = PartitionNode(p, num_nodes) == ctx.node;

        if (pass2_bits == 0) {
          PhaseScope scope(ctx, kPhaseJoin);
          PerfCounters& counters = ctx.Counters(kPhaseJoin);
          counters.CountRead(part_local, /*sequential=*/true,
                             (r_part.size + s_part.size) * sizeof(Tuple));
          FragmentHashJoin(r_part, s_part, consumer, counters,
                           heads_scratch[w], next_scratch[w]);
          return;
        }

        // Local second pass: copy into worker-local scratch grouped by
        // the next B2 hash bits (sequential local writes).
        {
          PhaseScope scope(ctx, kPhaseSortPrivate);
          PerfCounters& counters = ctx.Counters(kPhaseSortPrivate);
          auto subpartition = [&](const Slice& part,
                                  std::vector<Tuple>& local,
                                  std::vector<uint64_t>& sub_offset) {
            local.resize(part.size);
            std::vector<uint64_t> h(p2, 0);
            simd::HashDigitHistogram(part.data, part.size, kHashMultiplier,
                                     pass1_bits, pass2_bits, h.data(),
                                     simd::SimdKind::kAuto);
            sub_offset[0] = 0;
            for (uint32_t b = 0; b < p2; ++b) {
              sub_offset[b + 1] = sub_offset[b] + h[b];
            }
            std::vector<uint64_t> cursor(sub_offset.begin(),
                                         sub_offset.end() - 1);
            for (size_t i = 0; i < part.size; ++i) {
              const uint32_t b =
                  HashDigit(part.data[i].key, pass1_bits, pass2_bits);
              local[cursor[b]++] = part.data[i];
            }
            counters.CountRead(part_local, /*sequential=*/true,
                               2 * part.size * sizeof(Tuple));
            counters.CountWrite(/*local=*/true, /*sequential=*/true,
                                part.size * sizeof(Tuple));
          };
          subpartition(r_part, r_local[w], r_sub[w]);
          subpartition(s_part, s_local[w], s_sub[w]);
        }

        {
          PhaseScope scope(ctx, kPhaseJoin);
          PerfCounters& counters = ctx.Counters(kPhaseJoin);
          for (uint32_t b = 0; b < p2; ++b) {
            FragmentHashJoin(
                Slice{r_local[w].data() + r_sub[w][b],
                      r_sub[w][b + 1] - r_sub[w][b]},
                Slice{s_local[w].data() + s_sub[w][b],
                      s_sub[w][b + 1] - s_sub[w][b]},
                consumer, counters, heads_scratch[w], next_scratch[w]);
          }
        }
      },
      // Self-timed: the body splits its time between the pass-2 slot
      // and the join slot, mirroring the legacy per-task PhaseScopes.
      // Claims (the former explicit sync_acquisitions) are charged to
      // the join slot by the scheduler.
      PhasePipeline::PhaseOptions{.self_timed = true});

  WallTimer timer;
  pipeline.Run(team);
  return CollectRunInfo(team, timer.ElapsedSeconds());
}

}  // namespace mpsm::baseline

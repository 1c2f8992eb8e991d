#include "core/merge_join.h"

#include "core/interpolation_search.h"
#include "simd/caps.h"

namespace mpsm {

const char* JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
      return "inner";
    case JoinKind::kLeftSemi:
      return "left-semi";
    case JoinKind::kLeftAnti:
      return "left-anti";
    case JoinKind::kLeftOuter:
      return "left-outer";
  }
  return "unknown";
}

namespace {

size_t FindStart(const Tuple* data, size_t n, uint64_t key,
                 StartSearch search, SearchStats* stats) {
  switch (search) {
    case StartSearch::kInterpolation:
      return InterpolationLowerBound(data, n, key, stats);
    case StartSearch::kBinary:
      return BinaryLowerBound(data, n, key, stats);
    case StartSearch::kLinear:
      return LinearLowerBound(data, n, key, stats);
  }
  return 0;
}

}  // namespace

uint64_t JoinPrivateAgainstRuns(const Run& ri, const RunSet& s_runs,
                                uint32_t first_run,
                                const RunJoinOptions& options,
                                JoinConsumer& consumer,
                                numa::NodeId worker_node,
                                PerfCounters* counters) {
  if (ri.empty()) return 0;

  // The private run is local to its producing worker, but a stolen
  // phase-4 morsel executes on another node — classify against the
  // run's actual home.
  const bool r_local = ri.node == worker_node;
  const bool needs_bitmap = options.kind != JoinKind::kInner;
  MatchBitmap matched;
  if (needs_bitmap) matched = MatchBitmap(ri.size);

  // One kind resolution per driver call: the resolved kind selects the
  // merge loops.
  const simd::SimdKind simd_kind = simd::Resolve(simd::SimdKind::kAuto);

  uint64_t output = 0;
  const uint32_t num_runs = static_cast<uint32_t>(s_runs.size());
  for (uint32_t offset = 0; offset < num_runs; ++offset) {
    const uint32_t j = (first_run + offset) % num_runs;
    const Run& sj = s_runs[j];
    if (sj.empty()) continue;
    const bool s_local = sj.node == worker_node;

    // Locate the first public tuple that can join with this private
    // run (§3.2.2). The search probes are random accesses.
    SearchStats search_stats;
    const size_t start =
        FindStart(sj.data, sj.size, ri.MinKey(), options.search,
                  &search_stats);
    if (counters != nullptr) {
      counters->CountRead(s_local, /*sequential=*/false,
                          search_stats.probes * sizeof(Tuple));
    }
    // No overlap: either this run ends below the private range or it
    // starts above it. With location skew (§5.5) this skips (T-1) of
    // the public runs after just the search probes.
    if (start == sj.size) continue;
    if (sj.data[start].key > ri.MaxKey()) continue;

    // Symmetric skip: private tuples below the public run's first
    // relevant key cannot match either; locate the private start with
    // the same search instead of advancing the merge one-by-one.
    SearchStats r_search;
    const size_t r_start = FindStart(ri.data, ri.size, sj.data[start].key,
                                     options.search, &r_search);
    if (counters != nullptr) {
      counters->CountRead(r_local, /*sequential=*/false,
                          r_search.probes * sizeof(Tuple));
    }
    if (r_start == ri.size) continue;

    const Tuple* r_base = ri.data + r_start;
    const size_t r_size = ri.size - r_start;
    const Tuple* s_base = sj.data + start;
    const size_t s_size = sj.size - start;
    const auto merge = [&](auto&& on_match) {
      return MergeJoinRunPairWith(simd_kind, r_base, r_size, s_base, s_size,
                                  on_match);
    };

    MergeScan scan;
    switch (options.kind) {
      case JoinKind::kInner:
        scan = merge([&](size_t, const Tuple& r, const Tuple* s,
                         size_t count) {
          consumer.OnMatch(r, s, count);
          output += count;
        });
        break;
      case JoinKind::kLeftSemi:
        scan = merge([&](size_t idx, const Tuple& r, const Tuple* s,
                         size_t) {
          idx += r_start;
          if (!matched.Get(idx)) {
            matched.Set(idx);
            consumer.OnMatch(r, s, 1);
            ++output;
          }
        });
        break;
      case JoinKind::kLeftAnti:
        scan = merge([&](size_t idx, const Tuple&, const Tuple*, size_t) {
          matched.Set(idx + r_start);
        });
        break;
      case JoinKind::kLeftOuter:
        scan = merge([&](size_t idx, const Tuple& r, const Tuple* s,
                         size_t count) {
          matched.Set(idx + r_start);
          consumer.OnMatch(r, s, count);
          output += count;
        });
        break;
    }

    if (counters != nullptr) {
      // The private run is rescanned for every public run (sequential,
      // local unless this is a stolen morsel); the public run is
      // scanned from the start position to wherever the merge stopped
      // (sequential).
      counters->CountRead(r_local, /*sequential=*/true,
                          scan.r_end * sizeof(Tuple));
      counters->CountRead(s_local, /*sequential=*/true,
                          scan.s_end * sizeof(Tuple));
    }
  }

  // Emit unmatched private tuples for anti/outer joins.
  if (options.kind == JoinKind::kLeftAnti ||
      options.kind == JoinKind::kLeftOuter) {
    for (size_t i = 0; i < ri.size; ++i) {
      if (!matched.Get(i)) {
        consumer.OnUnmatchedR(ri.data[i]);
        ++output;
      }
    }
    if (counters != nullptr) {
      counters->CountRead(r_local, /*sequential=*/true,
                          ri.size * sizeof(Tuple));
    }
  }

  if (counters != nullptr) counters->output_tuples += output;
  return output;
}

std::vector<Morsel> MergeJoinMorsels(const RunSet& r_runs,
                                     uint32_t num_public_runs, JoinKind kind,
                                     uint64_t slice) {
  std::vector<Morsel> morsels;
  const uint32_t num_private = static_cast<uint32_t>(r_runs.size());
  for (uint32_t i = 0; i < num_private; ++i) {
    const Run& ri = r_runs[i];
    if (ri.empty()) continue;
    if (kind != JoinKind::kInner) {
      morsels.push_back(Morsel{i, i, 0, ri.size});
      continue;
    }
    const auto ranges = SliceRanges(ri.size, slice);
    for (uint32_t offset = 0; offset < num_public_runs; ++offset) {
      // Stagger the public runs per private run, like the paper's
      // driver, so concurrent morsels fan out across nodes.
      const uint32_t j = (i + offset) % num_public_runs;
      for (const auto& [begin, end] : ranges) {
        morsels.push_back(Morsel{i, i * num_public_runs + j, begin, end});
      }
    }
  }
  return morsels;
}

void ExecuteMergeJoinMorsel(const Morsel& morsel, const RunSet& r_runs,
                            const RunSet& s_runs,
                            const RunJoinOptions& options,
                            JoinConsumer& consumer, numa::NodeId worker_node,
                            PerfCounters* counters) {
  const uint32_t num_public = static_cast<uint32_t>(s_runs.size());
  if (options.kind != JoinKind::kInner) {
    JoinPrivateAgainstRuns(r_runs[morsel.task], s_runs,
                           /*first_run=*/morsel.task, options, consumer,
                           worker_node, counters);
    return;
  }
  const uint32_t i = morsel.task / num_public;
  const uint32_t j = morsel.task % num_public;
  if (morsel.end <= morsel.begin) return;
  const Run& ri = r_runs[i];
  // An inner join emits independently per private tuple, so a tuple
  // range of the private run joined against one public run is a
  // self-contained unit of work.
  const Run segment{ri.data + morsel.begin, morsel.end - morsel.begin,
                    ri.node};
  const RunSet single{s_runs[j]};
  JoinPrivateAgainstRuns(segment, single, /*first_run=*/0, options, consumer,
                         worker_node, counters);
}

}  // namespace mpsm

// Join kinds and shared option types for the MPSM algorithm family.
#pragma once

#include <cstdint>
#include <functional>

#include "parallel/scheduler_kind.h"
#include "partition/splitters.h"
#include "util/status.h"

namespace mpsm {

/// Supported equi-join variants. Inner is the paper's focus; semi,
/// anti and left-outer are the §7 future-work variants, implemented on
/// top of the same merge kernel via per-run match bitmaps.
enum class JoinKind : uint8_t {
  kInner,
  kLeftSemi,
  kLeftAnti,
  kLeftOuter,
};

/// Name of a JoinKind ("inner", "left-semi", ...).
const char* JoinKindName(JoinKind kind);

/// Lookahead (in tuples) of the prefetch-pipelined merge kernel: 16
/// tuples = 4 cache lines, roughly one memory latency ahead of a
/// ~1 tuple/cycle merge loop.
inline constexpr uint32_t kDefaultMergePrefetchDistance = 16;

/// Strategy for locating the merge-join start position in a public run
/// (§3.2.2 ablation).
enum class StartSearch : uint8_t {
  kInterpolation,  // the paper's choice
  kBinary,
  kLinear,
};

/// Tuning knobs of the MPSM variants.
struct MpsmOptions {
  /// Join variant to compute.
  JoinKind kind = JoinKind::kInner;

  /// Number of radix bits B for private-input clustering; log2(T) <= B.
  /// 0 selects the default max(ceil(log2(T)) + 5, 10), giving the
  /// splitter computation fine-grained histograms (Figure 9 shows the
  /// extra precision is almost free).
  uint32_t radix_bits = 0;

  /// How workers locate the join start within each public run.
  StartSearch start_search = StartSearch::kInterpolation;

  /// Balance partitions by the split-relevant cost (true, §4.3) or by
  /// R cardinality only (false; Figure 16's equi-height strawman).
  bool cost_balanced_splitters = true;

  // ------------------------------------------------ phase orchestration
  /// How phase work is distributed over the team: the paper's static
  /// per-worker scripts, or morsel-driven NUMA-aware work stealing over
  /// kMorselTuples-tuple morsels (parallel/task_scheduler.h) so idle
  /// workers absorb stragglers' run generation, phase-3 sorts and
  /// phase-4 merges (docs/scheduler.md). Identical join output either
  /// way. Stealing is the default since run generation was sliced
  /// below chunk granularity (a claim race can no longer hand one
  /// worker two whole chunk sorts); kStatic remains the paper-fidelity
  /// A/B knob.
  SchedulerKind scheduler = SchedulerKind::kStealing;

  /// Checks every knob against its legal range for a team of
  /// `team_size` workers. The engine front door calls this before
  /// planning; the variant classes themselves stay lenient (e.g.
  /// EffectiveRadixBits clamps an undersized radix_bits) so the
  /// internal layer keeps its paper-fidelity behavior.
  Status Validate(uint32_t team_size) const;
};

}  // namespace mpsm

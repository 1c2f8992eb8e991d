// Parallel radix hash join — the stand-in for Vectorwise's join engine.
//
// Vectorwise (the paper's strongest contender) builds on MonetDB's
// radix join [19]: repeatedly partition both inputs on join-key hash
// bits until fragments are cache-sized, then build+probe per fragment.
// This implementation follows the multi-core formulation of Kim et al.
// [17] / He et al. [14]: histogram + prefix-sum scatter per pass, a
// first cross-NUMA pass of B1 bits (TLB-bounded), a second node-local
// pass of B2 bits, and per-fragment hash join, with partitions load-
// balanced over workers through an atomic task counter.
#pragma once

#include <cstdint>
#include <utility>

#include "core/consumers.h"
#include "core/join_stats.h"
#include "parallel/worker_team.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::baseline {

/// Target tuples per final fragment (cache-resident build side): the
/// pass bits are chosen so |R| / 2^(B1+B2) is about this.
inline constexpr uint32_t kTargetFragmentTuples = 2048;

/// The radix-partitioned hash join (inner joins).
/// Consumers receive OnMatch(build_tuple, &probe_tuple, 1).
class RadixHashJoin {
 public:
  /// Phase mapping for stats: pass 1 -> kPhasePartition, pass 2 ->
  /// kPhaseSortPrivate slot, build+probe -> kPhaseJoin.
  Result<JoinRunInfo> Execute(WorkerTeam& team, const Relation& r_build,
                              const Relation& s_probe,
                              ConsumerFactory& consumers) const;

  /// (pass1_bits, pass2_bits) for a build side of `r_size`: enough
  /// bits in total for kTargetFragmentTuples-tuple fragments (at most
  /// 22), of which the first pass takes at most 11 (2048 open write
  /// streams) and the second the rest, so the second pass runs only
  /// above 2^22 build tuples.
  static std::pair<uint32_t, uint32_t> EffectiveBits(size_t r_size);
};

}  // namespace mpsm::baseline

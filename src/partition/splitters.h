// Cost-balanced splitter computation (§4.3, phase 2.3).
//
// Given the global radix histogram of R (phase 2.2) and the CDF of S
// (phase 2.1), choose partition bounds — at the granularity of radix
// clusters — such that the maximum per-worker cost
//
//   split-relevant-cost_i = |Ri|*log(|Ri|) + T*|Ri|
//                           + CDF(Ri.high) - CDF(Ri.low)
//
// is minimized (the bottleneck worker determines response time; cf.
// Ross & Cieslewicz). Implemented as a binary search over the
// bottleneck cost with a greedy feasibility check — optimal for
// contiguous partitioning of a sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "partition/cdf.h"
#include "partition/key_normalizer.h"
#include "partition/radix_histogram.h"

namespace mpsm {

/// The result of splitter computation: a non-decreasing map from radix
/// cluster to target partition ("splitter vector sp" in Figure 10).
struct Splitters {
  std::vector<uint32_t> cluster_to_partition;
  uint32_t num_partitions = 0;

  /// Estimated cost / R-cardinality / S-estimate per partition. The R
  /// cardinalities are exact counts of the histogram's tuples; P-MPSM
  /// sizes its partitions by them.
  std::vector<double> partition_costs;
  std::vector<uint64_t> partition_r_sizes;
  std::vector<double> partition_s_estimates;

  /// Target partition of a radix cluster.
  uint32_t PartitionOfCluster(uint32_t cluster) const {
    return cluster_to_partition[cluster];
  }
};

/// Cost of one candidate partition holding `r` private tuples whose key
/// range covers an estimated `s` public tuples.
using PartitionCostFn = std::function<double(uint64_t r, double s)>;

/// The paper's split-relevant cost for a team of T workers.
PartitionCostFn MakePMpsmCost(uint32_t team_size);

/// Cardinality-only cost (|Ri|): produces the equi-height R
/// partitioning used as the strawman in Figure 16.
PartitionCostFn MakeEquiHeightRCost();

/// Estimates, per radix cluster, how many S tuples fall into the
/// cluster's key range (probing the CDF at the radix boundaries, as in
/// Figure 10's dashed probes).
std::vector<double> EstimateClusterS(const KeyNormalizer& normalizer,
                                     const Cdf& cdf);

/// Packs the 2^B radix clusters into at most `num_partitions` contiguous
/// partitions minimizing the maximum `cost(r, s)` over partitions.
/// `cluster_s` may be empty (treated as all-zero, e.g. for
/// cardinality-only balancing).
Splitters ComputeSplitters(const RadixHistogram& global_r,
                           const std::vector<double>& cluster_s,
                           uint32_t num_partitions,
                           const PartitionCostFn& cost);

}  // namespace mpsm

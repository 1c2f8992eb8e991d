// Interpolation search for the merge-join start position (§3.2.2).
//
// After range partitioning, a private run Ri joins only a narrow key
// range of each public run Sj. Scanning for the start would cost many
// comparisons; interpolation search finds it by repeatedly applying the
// rule of proportion over the current search space, converging in
// O(log log n) steps on smooth distributions. A binary-search safety
// net bounds the worst case for adversarial key distributions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "storage/tuple.h"

namespace mpsm {

/// Probe statistics for ablation benchmarks.
struct SearchStats {
  uint64_t probes = 0;
};

/// First index i in the sorted array data[0..n) with data[i].key >= key
/// (lower bound), found via interpolation search.
size_t InterpolationLowerBound(const Tuple* data, size_t n, uint64_t key,
                               SearchStats* stats = nullptr);

/// Same contract via binary search (ablation baseline).
size_t BinaryLowerBound(const Tuple* data, size_t n, uint64_t key,
                        SearchStats* stats = nullptr);

/// Same contract via linear scan (ablation baseline; the "numerous
/// expensive comparisons" the paper avoids).
size_t LinearLowerBound(const Tuple* data, size_t n, uint64_t key,
                        SearchStats* stats = nullptr);

}  // namespace mpsm

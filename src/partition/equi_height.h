// Equi-height histograms on sorted runs (§4.1, phase 2.1).
//
// Because each public-input run is already sorted, an equi-height
// histogram is just a strided read of f*T keys — "almost no cost".
// The per-run histograms are merged into the global CDF of S.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/run.h"

namespace mpsm {

/// An equi-height histogram of one sorted run: `bounds[j]` is the key
/// of the last tuple of the j-th equal-count bucket; each bucket covers
/// ~run_size / bounds.size() tuples.
struct EquiHeightHistogram {
  std::vector<uint64_t> bounds;
  uint64_t run_size = 0;
};

/// The paper's oversampling factor f: each of T workers extracts f*T
/// bounds from its run for better CDF precision (§4.1).
inline constexpr uint32_t kEquiHeightFactor = 4;

/// Extracts `num_bounds` equi-height bounds from a sorted run (f*T in
/// every join). Empty runs yield an empty histogram.
EquiHeightHistogram BuildEquiHeightHistogram(const Run& run,
                                             uint32_t num_bounds);

}  // namespace mpsm

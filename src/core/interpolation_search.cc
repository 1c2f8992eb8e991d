#include "core/interpolation_search.h"

#include <algorithm>

namespace mpsm {

namespace {
inline void CountProbe(SearchStats* stats) {
  if (stats != nullptr) ++stats->probes;
}
}  // namespace

size_t InterpolationLowerBound(const Tuple* data, size_t n, uint64_t key,
                               SearchStats* stats) {
  if (n == 0) return 0;
  size_t lo = 0;
  size_t hi = n - 1;  // inclusive

  CountProbe(stats);
  if (data[lo].key >= key) return 0;
  CountProbe(stats);
  if (data[hi].key < key) return n;

  // Invariant: data[lo].key < key <= data[hi].key.
  // Interpolation converges fast on smooth key distributions; cap the
  // number of proportion steps and fall back to binary search so that
  // adversarial distributions stay O(log n).
  int interpolation_steps = 0;
  while (hi - lo > 1) {
    size_t mid;
    if (interpolation_steps < 32) {
      ++interpolation_steps;
      const uint64_t key_lo = data[lo].key;
      const uint64_t key_hi = data[hi].key;
      // rule of proportion: lo + (hi-lo) * (key-key_lo)/(key_hi-key_lo)
      const unsigned __int128 numerator =
          static_cast<unsigned __int128>(key - key_lo) * (hi - lo);
      mid = lo + static_cast<size_t>(numerator / (key_hi - key_lo));
      // Keep strictly inside (lo, hi) to guarantee progress.
      mid = std::clamp(mid, lo + 1, hi - 1);
    } else {
      mid = lo + (hi - lo) / 2;
    }
    CountProbe(stats);
    if (data[mid].key < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

size_t BinaryLowerBound(const Tuple* data, size_t n, uint64_t key,
                        SearchStats* stats) {
  size_t lo = 0;
  size_t len = n;
  while (len > 0) {
    const size_t half = len / 2;
    CountProbe(stats);
    if (data[lo + half].key < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo;
}

size_t LinearLowerBound(const Tuple* data, size_t n, uint64_t key,
                        SearchStats* stats) {
  size_t i = 0;
  while (i < n) {
    CountProbe(stats);
    if (data[i].key >= key) break;
    ++i;
  }
  return i;
}

}  // namespace mpsm

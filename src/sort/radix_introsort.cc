#include "sort/radix_introsort.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "simd/histogram_kernels.h"
#include "util/bits.h"

namespace mpsm::sort {

bool IsSortedByKey(const Tuple* data, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (data[i - 1].key > data[i].key) return false;
  }
  return true;
}

void InsertionSort(Tuple* data, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    const Tuple value = data[i];
    size_t j = i;
    while (j > 0 && data[j - 1].key > value.key) {
      data[j] = data[j - 1];
      --j;
    }
    data[j] = value;
  }
}

namespace {

void SiftDown(Tuple* data, size_t start, size_t end) {
  size_t root = start;
  while (2 * root + 1 < end) {
    size_t child = 2 * root + 1;
    if (child + 1 < end && data[child].key < data[child + 1].key) ++child;
    if (data[root].key >= data[child].key) return;
    std::swap(data[root], data[child]);
    root = child;
  }
}

// Median-of-three pivot selection; places the median at data[mid].
uint64_t MedianOfThreeKey(Tuple* data, size_t lo, size_t mid, size_t hi) {
  if (data[mid].key < data[lo].key) std::swap(data[mid], data[lo]);
  if (data[hi].key < data[lo].key) std::swap(data[hi], data[lo]);
  if (data[hi].key < data[mid].key) std::swap(data[hi], data[mid]);
  return data[mid].key;
}

// Hoare partition around pivot key; returns the split point.
size_t HoarePartition(Tuple* data, size_t lo, size_t hi, uint64_t pivot) {
  size_t i = lo;
  size_t j = hi;
  while (true) {
    while (data[i].key < pivot) ++i;
    while (data[j].key > pivot) --j;
    if (i >= j) return j;
    std::swap(data[i], data[j]);
    ++i;
    --j;
  }
}

// Depth-limited quicksort; leaves sub-arrays below kInsertionThreshold
// unsorted (final insertion pass establishes total order, §2.3 step 2.2).
void IntroSortLoop(Tuple* data, size_t lo, size_t hi, int depth_limit) {
  while (hi - lo + 1 > kInsertionThreshold) {
    if (depth_limit == 0) {
      HeapSort(data + lo, hi - lo + 1);
      return;
    }
    --depth_limit;
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t pivot = MedianOfThreeKey(data, lo, mid, hi);
    const size_t split = HoarePartition(data, lo, hi, pivot);
    // Recurse into the smaller half, iterate on the larger: O(log n)
    // stack depth even for adversarial inputs.
    if (split - lo < hi - split) {
      if (split > lo) IntroSortLoop(data, lo, split, depth_limit);
      lo = split + 1;
    } else {
      if (split + 1 < hi) IntroSortLoop(data, split + 1, hi, depth_limit);
      if (split == 0) return;  // guard size_t underflow
      hi = split;
    }
  }
}

}  // namespace

void HeapSort(Tuple* data, size_t n) {
  if (n < 2) return;
  for (size_t start = n / 2; start > 0; --start) {
    SiftDown(data, start - 1, n);
  }
  for (size_t end = n - 1; end > 0; --end) {
    std::swap(data[0], data[end]);
    SiftDown(data, 0, end);
  }
}

void IntroSort(Tuple* data, size_t n) {
  if (n < 2) return;
  // Paper: "Use Quicksort to at most 2*log(N) recursion levels."
  const int depth_limit = 2 * static_cast<int>(bits::Log2Floor(n));
  IntroSortLoop(data, 0, n - 1, depth_limit);
  InsertionSort(data, n);
}

uint32_t RadixShiftForMaxKey(uint64_t max_key) {
  const uint32_t width = bits::BitWidth(max_key);
  return width > 8 ? width - 8 : 0;
}

std::array<size_t, kRadixBuckets + 1> MsdRadixPartition(Tuple* data, size_t n,
                                                        uint32_t shift,
                                                        simd::SimdKind simd) {
  std::array<size_t, kRadixBuckets + 1> bounds{};

  // Histogram of the 8-bit digit (packed digit extraction).
  std::array<uint64_t, kRadixBuckets> histogram{};
  simd::RadixDigitHistogram(data, n, shift, histogram.data(), simd);

  // Exclusive prefix sums: bucket b occupies [bounds[b], bounds[b+1]).
  size_t offset = 0;
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    bounds[b] = offset;
    offset += static_cast<size_t>(histogram[b]);
  }
  bounds[kRadixBuckets] = offset;

  // American-flag in-place permutation: heads advance as elements land.
  std::array<size_t, kRadixBuckets> head;
  std::copy(bounds.begin(), bounds.begin() + kRadixBuckets, head.begin());
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    const size_t bucket_end = bounds[b + 1];
    while (head[b] < bucket_end) {
      Tuple value = data[head[b]];
      uint32_t digit = static_cast<uint32_t>((value.key >> shift) & 0xFF);
      while (digit != b) {
        std::swap(value, data[head[digit]]);
        ++head[digit];
        digit = static_cast<uint32_t>((value.key >> shift) & 0xFF);
      }
      data[head[b]] = value;
      ++head[b];
    }
  }
  return bounds;
}

void RadixIntroSort(Tuple* data, size_t n) {
  if (n < 2) return;
  if (n <= kRadixBuckets * 4) {
    // Radix pass overhead does not pay off for tiny arrays.
    IntroSort(data, n);
    return;
  }

  uint64_t max_key = 0;
  for (size_t i = 0; i < n; ++i) max_key = std::max(max_key, data[i].key);
  const uint32_t shift = RadixShiftForMaxKey(max_key);

  const auto bounds = MsdRadixPartition(data, n, shift);
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    const size_t size = bounds[b + 1] - bounds[b];
    if (size > 1) IntroSort(data + bounds[b], size);
  }
}

namespace {

// Invariant: all keys in data[0..n) agree on every bit >= shift + 8
// (the first call starts at the top of the significant bits, and each
// level fixes 8 more). Hence once shift reaches 0, a bucket holds one
// repeated key and needs no further sorting.
void MultiPassRecurse(Tuple* data, size_t n, uint32_t shift,
                      uint32_t passes_left, const RadixSortConfig& config) {
  const auto bounds = MsdRadixPartition(data, n, shift, config.simd);
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    const size_t size = bounds[b + 1] - bounds[b];
    if (size < 2) continue;
    Tuple* bucket = data + bounds[b];
    if (shift == 0) continue;  // bucket keys are fully equal
    if (size > config.repartition_threshold && passes_left > 1) {
      MultiPassRecurse(bucket, size, shift >= 8 ? shift - 8 : 0,
                       passes_left - 1, config);
    } else {
      IntroSort(bucket, size);
    }
  }
}

}  // namespace

std::array<size_t, kRadixBuckets + 1> MsdRadixPartitionCopy(
    const Tuple* src, size_t n, uint32_t shift, Tuple* dst,
    simd::SimdKind simd) {
  std::array<size_t, kRadixBuckets + 1> bounds{};

  std::array<uint64_t, kRadixBuckets> histogram{};
  simd::RadixDigitHistogram(src, n, shift, histogram.data(), simd);

  size_t offset = 0;
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    bounds[b] = offset;
    offset += static_cast<size_t>(histogram[b]);
  }
  bounds[kRadixBuckets] = offset;

  // The copy doubles as the scatter: each source tuple lands directly
  // in its bucket's range of dst.
  std::array<size_t, kRadixBuckets> head;
  std::copy(bounds.begin(), bounds.begin() + kRadixBuckets, head.begin());
  for (size_t i = 0; i < n; ++i) {
    dst[head[(src[i].key >> shift) & 0xFF]++] = src[i];
  }
  return bounds;
}

void SortMsdBuckets(Tuple* data,
                    const std::array<size_t, kRadixBuckets + 1>& bounds,
                    uint32_t bucket_begin, uint32_t bucket_end,
                    uint32_t shift, const RadixSortConfig& config) {
  for (uint32_t b = bucket_begin; b < bucket_end; ++b) {
    const size_t size = bounds[b + 1] - bounds[b];
    if (size < 2) continue;
    if (shift == 0) continue;  // one repeated key per bucket
    Tuple* bucket = data + bounds[b];
    if (size > config.repartition_threshold && config.max_passes > 1) {
      MultiPassRecurse(bucket, size, shift >= 8 ? shift - 8 : 0,
                       config.max_passes - 1, config);
    } else {
      IntroSort(bucket, size);
    }
  }
}

void SortCopyInto(const Tuple* src, size_t n, Tuple* dst,
                  const RadixSortConfig& config, bool src_is_local) {
  if (n == 0) return;
  if (n <= kRadixBuckets * 4) {
    std::memcpy(dst, src, n * sizeof(Tuple));
    IntroSort(dst, n);
    return;
  }

  if (!src_is_local) {
    // C1: cross the interconnect once — copy + max-key in one pass,
    // then radix-partition in place on the local destination (still
    // one sweep cheaper than copy + separate max scan + partition).
    uint64_t max_key = 0;
    for (size_t i = 0; i < n; ++i) {
      dst[i] = src[i];
      max_key = std::max(max_key, dst[i].key);
    }
    const uint32_t shift = RadixShiftForMaxKey(max_key);
    const auto bounds = MsdRadixPartition(dst, n, shift, config.simd);
    SortMsdBuckets(dst, bounds, 0, kRadixBuckets, shift, config);
    return;
  }

  uint64_t min_key = 0;
  uint64_t max_key = 0;
  simd::KeyMinMax(src, n, &min_key, &max_key, config.simd);
  const uint32_t shift = RadixShiftForMaxKey(max_key);
  const auto bounds = MsdRadixPartitionCopy(src, n, shift, dst, config.simd);
  SortMsdBuckets(dst, bounds, 0, kRadixBuckets, shift, config);
}

void RadixIntroSortMultiPass(Tuple* data, size_t n,
                             const RadixSortConfig& config) {
  if (n < 2) return;
  if (n <= kRadixBuckets * 4) {
    IntroSort(data, n);
    return;
  }

  uint64_t min_key = 0;
  uint64_t max_key = 0;
  simd::KeyMinMax(data, n, &min_key, &max_key, config.simd);
  MultiPassRecurse(data, n, RadixShiftForMaxKey(max_key),
                   std::max(config.max_passes, 1u), config);
}

void SortTuples(Tuple* data, size_t n, const RadixSortConfig& config) {
  RadixIntroSortMultiPass(data, n, config);
}

Status RadixSortConfig::Validate() const {
  if (repartition_threshold == 0) {
    return Status::InvalidArgument(
        "sort_config.repartition_threshold must be >= 1");
  }
  if (max_passes == 0) {
    return Status::InvalidArgument(
        "sort_config.max_passes must be >= 1 (1 == the paper's single "
        "MSD pass)");
  }
  // 8 bits per pass over a 64-bit key: more than 8 passes cannot
  // consume new bits.
  if (max_passes > 8) {
    return Status::InvalidArgument(
        "sort_config.max_passes must be <= 8 (8-bit MSD passes over a "
        "64-bit key)");
  }
  return Status::OK();
}

}  // namespace mpsm::sort

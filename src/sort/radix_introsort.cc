#include "sort/radix_introsort.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "partition/prefix_scatter.h"
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

namespace {

// Keys whose OR guesses the shift of the top digit before the
// histogram sweep of MsdRadixPartitionCopy.
constexpr size_t kShiftGuessKeys = 1024;

using DigitHistogram = std::array<uint64_t, kRadixBuckets>;

// Bucket boundaries from the counts of an 8-bit digit: bucket b
// occupies [bounds[b], bounds[b+1]).
std::array<size_t, kRadixBuckets + 1> PrefixBounds(
    const DigitHistogram& histogram) {
  std::array<size_t, kRadixBuckets + 1> bounds{};
  size_t offset = 0;
  for (uint32_t b = 0; b < kRadixBuckets; ++b) {
    bounds[b] = offset;
    offset += static_cast<size_t>(histogram[b]);
  }
  bounds[kRadixBuckets] = offset;
  return bounds;
}

}  // namespace

std::array<size_t, kRadixBuckets + 1> MsdRadixPartition(Tuple* data, size_t n,
                                                        uint32_t shift,
                                                        simd::SimdKind simd) {
  DigitHistogram histogram{};
  simd::RadixDigitHistogram(data, n, shift, histogram.data(), simd);
  const auto bounds = PrefixBounds(histogram);

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

std::array<size_t, kRadixBuckets + 1> MsdRadixPartitionCopy(
    const Tuple* src, size_t n, Tuple* dst, uint32_t* shift,
    simd::SimdKind simd) {
  uint64_t guess = 0;
  for (size_t i = 0; i < std::min(n, kShiftGuessKeys); ++i) {
    guess |= src[i].key;
  }
  *shift = RadixShiftForMaxKey(guess);
  DigitHistogram histogram{};
  const uint64_t key_or =
      simd::RadixDigitHistogram(src, n, *shift, histogram.data(), simd);
  if (RadixShiftForMaxKey(key_or) != *shift) {
    // A later key is wider than the first ones: count at its shift.
    *shift = RadixShiftForMaxKey(key_or);
    histogram.fill(0);
    simd::RadixDigitHistogram(src, n, *shift, histogram.data(), simd);
  }
  const auto bounds = PrefixBounds(histogram);

  // The copy doubles as the scatter: each source tuple lands directly
  // in its bucket's range of dst.
  std::array<Tuple*, kRadixBuckets> dest;
  dest.fill(dst);
  std::array<uint64_t, kRadixBuckets> cursor;
  std::copy(bounds.begin(), bounds.begin() + kRadixBuckets, cursor.begin());
  ScatterChunkWith(
      ScatterKind::kAuto, src, n,
      [key_shift = *shift](uint64_t key) {
        return static_cast<uint32_t>((key >> key_shift) & 0xFF);
      },
      dest.data(), cursor.data(), kRadixBuckets);
  return bounds;
}

namespace {

// Buckets of at most this many tuples are insertion-sorted: building
// and summing 256-entry histograms costs more than the sort.
constexpr size_t kLsdInsertionMax = 64;

// Digit counts of one LSD pass. 32 bits hold them: the LSD finish
// takes at most repartition_threshold <= UINT32_MAX tuples (Validate).
using LsdCounts = std::array<uint32_t, kRadixBuckets>;

// Adds the counts of digits 0..passes-1 of rank(key) over data[0..n)
// to counts[0..passes) in one read. The pass count is a template
// argument, so the per-key loop over the digits unrolls.
template <uint32_t kPasses = 8, typename Rank>
void CountLsdDigits(const Tuple* data, size_t n, uint32_t passes,
                    const Rank& rank, LsdCounts* counts) {
  if constexpr (kPasses > 1) {
    if (passes < kPasses) {
      CountLsdDigits<kPasses - 1>(data, n, passes, rank, counts);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = rank(data[i].key);
    for (uint32_t p = 0; p < kPasses; ++p) {
      ++counts[p][(key >> (8 * p)) & 0xFF];
    }
  }
}

// One stable LSD pass: each tuple of src[0..n), in order, goes to
// dst[offset[d]++] for d its digit of rank(key) at digit_shift.
// Unrolled by four, so the loads and digits of later tuples overlap
// the stores of earlier ones.
template <typename Rank>
void LsdScatter(const Tuple* src, size_t n, uint32_t digit_shift,
                const Rank& rank, uint32_t* offset, Tuple* dst) {
  const auto digit = [&](const Tuple& t) {
    return static_cast<uint32_t>(rank(t.key) >> digit_shift) & 0xFF;
  };
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Tuple t0 = src[i];
    const Tuple t1 = src[i + 1];
    const Tuple t2 = src[i + 2];
    const Tuple t3 = src[i + 3];
    const uint32_t d0 = digit(t0);
    const uint32_t d1 = digit(t1);
    const uint32_t d2 = digit(t2);
    const uint32_t d3 = digit(t3);
    dst[offset[d0]++] = t0;
    dst[offset[d1]++] = t1;
    dst[offset[d2]++] = t2;
    dst[offset[d3]++] = t3;
  }
  for (; i < n; ++i) dst[offset[digit(src[i])]++] = src[i];
}

// Sorts data[0..n) on bits [0, bits) of rank(key), which orders the
// keys as key does and fits in those bits: key itself for a bucket
// whose keys agree on every bit >= bits, or key - low for keys in
// [low, low + 2^bits). One read builds every 8-bit pass's histogram. A
// pass whose digit is the same for all n keys is skipped; the others
// scatter stably from one of data and scratch (room for n tuples) to
// the other, which is what makes the LSD order correct.
template <typename Rank>
void LsdFinish(Tuple* data, size_t n, uint32_t bits, const Rank& rank,
               Tuple* scratch) {
  if (n <= kLsdInsertionMax) {
    InsertionSort(data, n);
    return;
  }
  const uint32_t passes = (bits + 7) / 8;
  std::array<LsdCounts, 8> counts;
  for (uint32_t p = 0; p < passes; ++p) counts[p].fill(0);
  CountLsdDigits(data, n, passes, rank, counts.data());

  Tuple* src = data;
  Tuple* dst = scratch;
  for (uint32_t p = 0; p < passes; ++p) {
    const uint32_t digit_shift = 8 * p;
    auto& offset = counts[p];
    if (offset[(rank(src[0].key) >> digit_shift) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& slot : offset) {
      const uint32_t count = slot;
      slot = sum;
      sum += count;
    }
    LsdScatter(src, n, digit_shift, rank, offset.data(), dst);
    std::swap(src, dst);
  }
  if (src != data) std::memcpy(data, src, n * sizeof(Tuple));
}

// The calling thread's LSD scratch, with room for at least n tuples.
// Grown on first use and kept, so a worker allocates and faults in its
// scratch once, not once per bucket sort.
Tuple* ThreadScratch(size_t n) {
  thread_local std::unique_ptr<Tuple[]> scratch;
  thread_local size_t capacity = 0;
  if (n > capacity) {
    scratch = std::make_unique_for_overwrite<Tuple[]>(n);
    capacity = n;
  }
  return scratch.get();
}

// The run sort's policy for one bucket of n tuples whose keys agree on
// every bit >= shift, with passes_left MSD passes still allowed: LSD
// finish up to the threshold, else another in-place MSD pass, else
// introsort. A shift 0 bucket holds one repeated key.
void FinishBucket(Tuple* data, size_t n, uint32_t shift, uint32_t passes_left,
                  const RadixSortConfig& config) {
  if (n < 2 || shift == 0) return;
  if (n <= config.repartition_threshold) {
    LsdFinish(data, n, shift, [](uint64_t key) { return key; },
              ThreadScratch(n));
  } else if (passes_left > 0) {
    const uint32_t next_shift = shift >= 8 ? shift - 8 : 0;
    const auto bounds = MsdRadixPartition(data, n, next_shift, config.simd);
    for (uint32_t b = 0; b < kRadixBuckets; ++b) {
      FinishBucket(data + bounds[b], bounds[b + 1] - bounds[b], next_shift,
                   passes_left - 1, config);
    }
  } else {
    IntroSort(data, n);
  }
}

// SortTuples on data whose keys are all <= max_key: the whole input is
// one bucket whose keys agree on every bit at or above max_key's width.
void SortBelowMaxKey(Tuple* data, size_t n, uint64_t max_key,
                     const RadixSortConfig& config) {
  FinishBucket(data, n, bits::BitWidth(max_key),
               std::max(config.max_passes, 1u), config);
}

}  // namespace

void SortMsdBuckets(Tuple* data,
                    const std::array<size_t, kRadixBuckets + 1>& bounds,
                    uint32_t bucket_begin, uint32_t bucket_end,
                    uint32_t shift, const RadixSortConfig& config) {
  if (shift == 0) return;  // one repeated key per bucket
  // The pass that formed these buckets used one of the budget.
  const uint32_t passes_left = std::max(config.max_passes, 1u) - 1;
  // Grow the scratch once, to the largest bucket the LSD passes take.
  size_t largest = 0;
  for (uint32_t b = bucket_begin; b < bucket_end; ++b) {
    largest = std::max(largest, bounds[b + 1] - bounds[b]);
  }
  ThreadScratch(std::min(largest, config.repartition_threshold));
  for (uint32_t b = bucket_begin; b < bucket_end; ++b) {
    FinishBucket(data + bounds[b], bounds[b + 1] - bounds[b], shift,
                 passes_left, config);
  }
}

void SortCopyInto(const Tuple* src, size_t n, Tuple* dst,
                  const RadixSortConfig& config, bool src_is_local) {
  if (n == 0) return;
  if (!src_is_local || n <= config.repartition_threshold) {
    // Copy + max-key in one pass, then sort in place on the (local)
    // destination: a remote source crosses the interconnect once (C1),
    // and an input the LSD finish takes whole needs no MSD pass.
    uint64_t max_key = 0;
    for (size_t i = 0; i < n; ++i) {
      dst[i] = src[i];
      max_key = std::max(max_key, dst[i].key);
    }
    SortBelowMaxKey(dst, n, max_key, config);
    return;
  }

  uint32_t shift = 0;
  const auto bounds = MsdRadixPartitionCopy(src, n, dst, &shift, config.simd);
  SortMsdBuckets(dst, bounds, 0, kRadixBuckets, shift, config);
}

void SortTuples(Tuple* data, size_t n, const RadixSortConfig& config) {
  if (n < 2) return;
  uint64_t min_key = 0;
  uint64_t max_key = 0;
  simd::KeyMinMax(data, n, &min_key, &max_key, config.simd);
  SortBelowMaxKey(data, n, max_key, config);
}

void SortKeyRange(Tuple* data, size_t n, uint64_t low, uint32_t bits,
                  const RadixSortConfig& config) {
  if (n < 2 || bits == 0) return;
  if (n > config.repartition_threshold) {
    SortTuples(data, n, config);
    return;
  }
  LsdFinish(
      data, n, bits, [low](uint64_t key) { return key - low; },
      ThreadScratch(n));
}

Status RadixSortConfig::Validate() const {
  if (repartition_threshold == 0) {
    return Status::InvalidArgument(
        "sort_config.repartition_threshold must be >= 1");
  }
  if (repartition_threshold > UINT32_MAX) {
    return Status::InvalidArgument(
        "sort_config.repartition_threshold must be <= 2^32 - 1 (the LSD "
        "finish counts digits in 32 bits)");
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

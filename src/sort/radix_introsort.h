// Two sorts over 16-byte tuples, ordered by their 64-bit key.
//
// RadixIntroSort is the paper's three-phase routine (§2.3), kept as
// published for tab_sort_vs_stl and the BM_RadixIntroSort row:
//
//   1. One in-place MSD radix partitioning pass producing 2^8 = 256
//      partitions on the 8 most significant (used) bits of the key
//      (histogram -> partition boundaries -> swap into place).
//   2. IntroSort on each partition: quicksort limited to 2*log2(n)
//      recursion levels, falling back to heapsort beyond that.
//   3. Partitions below 16 elements are left to a final insertion-sort
//      pass that establishes the total order.
//
// SortTuples, SortCopyInto, SortMsdBuckets and SortKeyRange are the
// run sort: what every join turns its chunks and partitions into runs
// with. It keeps the paper's 256-way MSD first pass, out of place
// through the write-combining scatter where the sort copies anyway,
// and finishes each bucket of up to repartition_threshold tuples with
// 8-bit LSD passes over the key bits below its digit (Polychroniou &
// Ross, SIGMOD 2014), through one scratch buffer per thread.
// P-MPSM's phase 2 scatter already does that first pass for phase 3,
// which only finishes its segments (SortKeyRange). The in-place
// American-flag MSD pass (MsdRadixPartition) serves the paper's
// RadixIntroSort and buckets above the repartition threshold
// (SortTuples treats its whole input as one bucket); those take
// further in-place passes while max_passes lasts, then introsort.
// Individual phases are exposed for unit testing and for the kernel
// benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/simd_kind.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace mpsm::sort {

/// Number of buckets of the MSD radix pass (8 bits).
inline constexpr uint32_t kRadixBuckets = 256;

/// Quicksort-to-insertion-sort cutoff (paper: 16 elements).
inline constexpr size_t kInsertionThreshold = 16;

/// Tuning knobs of the run sort.
struct RadixSortConfig {
  /// Buckets of at most this many tuples are finished by LSD passes
  /// through the calling thread's scratch buffer, grown to the largest
  /// such bucket; larger buckets take another MSD pass. The default,
  /// 2^17 tuples (2 MiB: a bucket fills a 2 MiB L2, its scratch spills
  /// to L3), takes Figure 16's skewed buckets of about 52K tuples
  /// whole, where splitting them in place cost more than the LSD
  /// passes it saves (docs/tuning.md §2). At most UINT32_MAX: the LSD
  /// passes count digits in 32 bits.
  size_t repartition_threshold = size_t{1} << 17;

  /// Hard cap on the number of 8-bit MSD passes (LSD passes are not
  /// counted); a bucket still above the threshold when they run out is
  /// introsorted, which bounds the work on adversarial distributions.
  /// 1 is the paper's single pass.
  uint32_t max_passes = 4;

  /// Vector ISA of the MSD digit-histogram pass (docs/simd.md); every
  /// kind partitions identically — the knob is an A/B axis.
  simd::SimdKind simd = simd::SimdKind::kAuto;

  /// Range-checks the knobs (callers embed this in their own
  /// Options::Validate()).
  Status Validate() const;
};

/// The paper's §2.3 sort: sorts data[0..n) by key with one MSD pass
/// and introsort per bucket.
void RadixIntroSort(Tuple* data, size_t n);

/// The run sort: sorts data[0..n) by key in place under `config`. An
/// input of at most config.repartition_threshold tuples is LSD-sorted
/// whole; a larger one takes an in-place MSD pass on its top 8 used
/// key bits and its buckets are finished like SortMsdBuckets'.
void SortTuples(Tuple* data, size_t n, const RadixSortConfig& config = {});

/// Sorts data[0..n) by key when every key lies in [low, low + 2^bits)
/// (bits <= 64), e.g. a range-partitioned segment with known bounds:
/// up to config.repartition_threshold tuples take ceil(bits/8) LSD
/// passes over key - low, with no min/max sweep and no MSD pass; a
/// larger input is sorted by SortTuples. bits == 0 means one key.
void SortKeyRange(Tuple* data, size_t n, uint64_t low, uint32_t bits,
                  const RadixSortConfig& config = {});

/// Sorts data[0..n) by key with plain introsort (no radix pass); used
/// for small arrays and as a comparison point.
void IntroSort(Tuple* data, size_t n);

/// Insertion sort; exposed for testing. Sorts data[0..n) by key.
void InsertionSort(Tuple* data, size_t n);

/// Bottom-up heapsort; exposed for testing. Sorts data[0..n) by key.
void HeapSort(Tuple* data, size_t n);

/// In-place MSD radix partitioning ("American flag" pass): permutes
/// data[0..n) so that bucket b = (key >> shift) & 0xFF occupies
/// [bounds[b], bounds[b+1]). Returns the 257-entry boundary array.
/// `simd` selects the digit-histogram kernel; the permutation itself
/// is scalar (it is a data-dependent cycle walk).
std::array<size_t, kRadixBuckets + 1> MsdRadixPartition(
    Tuple* data, size_t n, uint32_t shift,
    simd::SimdKind simd = simd::SimdKind::kAuto);

/// Out-of-place MSD pass on the top 8 used key bits that fuses a copy
/// into the partitioning (the §2.3 amortization): dst[0..n) receives
/// src's tuples grouped by the 8-bit digit at *shift, replacing the
/// separate copy-then-permute passes of copy + MsdRadixPartition. It
/// stores in *shift RadixShiftForMaxKey of the largest key without a
/// sweep to find that key: the shift is guessed from the first 1024
/// keys, the digit-histogram sweep ORs every key, and the histogram is
/// counted again only when the OR is wider than the guess. The scatter
/// runs through ScatterChunkWith(ScatterKind::kAuto)
/// (partition/prefix_scatter.h), which write-combines at this fan-out.
/// src and dst must not overlap. Returns the 257-entry boundary array.
std::array<size_t, kRadixBuckets + 1> MsdRadixPartitionCopy(
    const Tuple* src, size_t n, Tuple* dst, uint32_t* shift,
    simd::SimdKind simd = simd::SimdKind::kAuto);

/// Finishes buckets [bucket_begin, bucket_end) of an MSD pass at
/// `shift` to a total order with the policy of `config`: a bucket of
/// at most repartition_threshold tuples is sorted on its key bits
/// below `shift` by LSD passes (insertion sort up to 64 tuples); a
/// larger one takes further MSD passes while the pass budget lasts,
/// then introsort. Shift 0 buckets hold one repeated key and are
/// skipped. Exposed per bucket *range* so the morsel scheduler can
/// spread one oversized chunk's bucket sorts over idle workers.
void SortMsdBuckets(Tuple* data,
                    const std::array<size_t, kRadixBuckets + 1>& bounds,
                    uint32_t bucket_begin, uint32_t bucket_end,
                    uint32_t shift, const RadixSortConfig& config = {});

/// Copies src[0..n) into dst[0..n) and sorts dst by key with the run
/// sort. The copy is fused with the first MSD pass; an input of at
/// most config.repartition_threshold tuples is copied and LSD-sorted
/// whole. No overlap allowed.
///
/// `src_is_local` steers the fusion around commandment C1 (touch
/// remote data once): a local source is swept twice (histogram + key
/// OR, then the scatter of MsdRadixPartitionCopy — cheaper than
/// copy-then-permute), three times when the shift guess misses; a
/// remote source is read exactly once by a fused copy+max-key pass,
/// with the run sort running in place on the local destination.
void SortCopyInto(const Tuple* src, size_t n, Tuple* dst,
                  const RadixSortConfig& config = {},
                  bool src_is_local = true);

/// Shift such that the top 8 significant bits of keys <= max_key select
/// the radix bucket (0 when max_key < 256).
uint32_t RadixShiftForMaxKey(uint64_t max_key);

/// True iff data[0..n) is non-decreasing in key.
bool IsSortedByKey(const Tuple* data, size_t n);

}  // namespace mpsm::sort

// Vectorized merge-advance kernels: the key-comparison inner loop of
// the phase-4 merge join (§3.3), done one register of keys at a time.
//
// A merge join spends most of its cycles advancing the cursor whose
// key is behind. On sorted data "advance r until r[i].key >= s_key" is
// a forward lower-bound, and within a block of W consecutive tuples
// the number of keys below the pivot *is* the advance distance — so
// one packed compare + popcount replaces W scalar compare/branch
// pairs (keys are lifted out of the 16-byte tuples with unpack
// shuffles; no gathers). Long skips (skewed runs) switch to galloping:
// doubling probes bracket the target, a binary search narrows it to
// one vector block, and a final packed count finishes — O(log d) for
// an advance of d.
//
// The kernels are defined inline here, behind per-function target
// attributes (simd/arch.h), so the merge loop templates in
// core/merge_join.h — themselves stamped per ISA — inline them fully:
// no per-advance call, the pivot and bias constants live in registers.
// Dispatch follows simd::Resolve (caps.h); the scalar advance is the
// oracle every kind is tested against (tests/simd_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/arch.h"
#include "storage/tuple.h"

namespace mpsm::simd {

/// Scalar reference advance (one compare per tuple). Every advance
/// kernel is a forward lower bound on a sorted run: the first index in
/// [begin, n) with data[idx].key >= key (n when none).
inline size_t AdvanceLowerBoundScalar(const Tuple* data, size_t begin,
                                      size_t n, uint64_t key) {
  size_t i = begin;
  while (i < n && data[i].key < key) ++i;
  return i;
}

#if MPSM_SIMD_X86

/// Full vector blocks to scan with early exit before concluding the
/// advance is a long skip and switching to galloping.
inline constexpr int kGallopAfterBlocks = 4;

/// Packed x < pivot needs unsigned 64-bit compares; AVX2 only has
/// signed ones, so keys and pivot are bias-flipped (a <u b  <=>
/// (a ^ 2^63) <s (b ^ 2^63)). AVX-512 compares unsigned natively.
inline constexpr long long kSignBias =
    static_cast<long long>(0x8000000000000000ull);

/// Keys below `key` among block[0..8) (16-byte tuples, keys unpacked
/// from pairs of loads — lane order inside the registers is a
/// permutation, which the count does not care about: on sorted data
/// the count is the advance distance either way).
MPSM_SIMD_TARGET("avx2")
inline size_t CountLessAvx2(const Tuple* block, uint64_t key) {
  const __m256i bias = _mm256_set1_epi64x(kSignBias);
  const __m256i pivot =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(key)), bias);
  const __m256i t0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i t1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 2));
  const __m256i t2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i t3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 6));
  const __m256i k03 = _mm256_xor_si256(_mm256_unpacklo_epi64(t0, t1), bias);
  const __m256i k47 = _mm256_xor_si256(_mm256_unpacklo_epi64(t2, t3), bias);
  const unsigned mask =
      static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(pivot, k03)))) |
      (static_cast<unsigned>(_mm256_movemask_pd(
           _mm256_castsi256_pd(_mm256_cmpgt_epi64(pivot, k47))))
       << 4);
  return static_cast<size_t>(__builtin_popcount(mask));
}

/// Keys below `key` among block[0..16) — 8 keys per compare.
MPSM_SIMD_TARGET("avx512f")
inline size_t CountLessAvx512(const Tuple* block, uint64_t key) {
  const __m512i pivot = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i t0 = _mm512_loadu_si512(block);
  const __m512i t1 = _mm512_loadu_si512(block + 4);
  const __m512i t2 = _mm512_loadu_si512(block + 8);
  const __m512i t3 = _mm512_loadu_si512(block + 12);
  // maskz variant: the plain unpack intrinsic routes through
  // _mm512_undefined_epi32, which trips -Wuninitialized in every
  // including TU on GCC; the all-ones-mask zero variant compiles to
  // the same vpunpcklqdq.
  const __m512i k07 =
      _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t0, t1);
  const __m512i k8f =
      _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t2, t3);
  const unsigned mask =
      static_cast<unsigned>(_mm512_cmplt_epu64_mask(k07, pivot)) |
      (static_cast<unsigned>(_mm512_cmplt_epu64_mask(k8f, pivot)) << 8);
  return static_cast<size_t>(__builtin_popcount(mask));
}

// The two advance kernels share one shape — a few early-exit vector
// blocks for the common short advance, then galloping + binary
// narrowing + one final packed count for long skips — stamped per ISA
// so each carries its target attribute and inlines its block counter.
#define MPSM_SIMD_DEFINE_ADVANCE(NAME, ISA, W, COUNT_LESS)                 \
  MPSM_SIMD_TARGET(ISA)                                                    \
  inline size_t NAME(const Tuple* data, size_t begin, size_t n,            \
                     uint64_t key) {                                       \
    size_t i = begin;                                                      \
    for (int block = 0; block < kGallopAfterBlocks; ++block) {             \
      if (i + (W) > n) return AdvanceLowerBoundScalar(data, i, n, key);    \
      const size_t count = COUNT_LESS(data + i, key);                      \
      i += count;                                                          \
      if (count < (W)) return i;                                           \
    }                                                                      \
    /* Everything before i is < key; bracket the target with doubling   */ \
    /* probes, keeping the invariant data[lo - 1].key < key.            */ \
    size_t lo = i;                                                         \
    size_t hi = n;                                                         \
    size_t step = W;                                                       \
    while (lo + step < n) {                                                \
      if (data[lo + step].key >= key) {                                    \
        hi = lo + step;                                                    \
        break;                                                             \
      }                                                                    \
      lo += step + 1;                                                      \
      step *= 2;                                                           \
    }                                                                      \
    /* Binary-narrow [lo, hi] to one vector block, then count it.       */ \
    while (hi - lo > (W)) {                                                \
      const size_t mid = lo + (hi - lo) / 2;                               \
      if (data[mid].key < key) {                                           \
        lo = mid + 1;                                                      \
      } else {                                                             \
        hi = mid;                                                          \
      }                                                                    \
    }                                                                      \
    if (lo + (W) <= n) return lo + COUNT_LESS(data + lo, key);             \
    return AdvanceLowerBoundScalar(data, lo, n, key);                      \
  }

MPSM_SIMD_DEFINE_ADVANCE(AdvanceLowerBoundAvx2, "avx2", 8, CountLessAvx2)
MPSM_SIMD_DEFINE_ADVANCE(AdvanceLowerBoundAvx512, "avx512f", 16,
                         CountLessAvx512)

#undef MPSM_SIMD_DEFINE_ADVANCE

// ------------------------------------------------- cached key windows
// The merge loop's register-resident view of the next W public-run
// keys: loaded and unpacked once, then compared against many ascending
// pivots before the next reload (the typical per-pivot catch-up is a
// handful of tuples, far less than a window). CountLess exploits that
// the window is sorted: the number of keys below the pivot IS the
// pivot's lower-bound offset, whatever the unpack's lane permutation.

struct SKeyWindowAvx2 {
  static constexpr size_t kWidth = 8;
  __m256i a, b;  // biased keys

  MPSM_SIMD_TARGET("avx2")
  inline void Load(const Tuple* block) {
    const __m256i bias = _mm256_set1_epi64x(kSignBias);
    const __m256i t0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
    const __m256i t1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 2));
    const __m256i t2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
    const __m256i t3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 6));
    a = _mm256_xor_si256(_mm256_unpacklo_epi64(t0, t1), bias);
    b = _mm256_xor_si256(_mm256_unpacklo_epi64(t2, t3), bias);
  }

  MPSM_SIMD_TARGET("avx2")
  inline size_t CountLess(uint64_t key) const {
    const __m256i pivot =
        _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(key)),
                         _mm256_set1_epi64x(kSignBias));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(pivot, a)))) |
        (static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_cmpgt_epi64(pivot, b))))
         << 4);
    return static_cast<size_t>(__builtin_popcount(mask));
  }
};

struct SKeyWindowAvx512 {
  static constexpr size_t kWidth = 16;
  __m512i a, b;  // raw keys (AVX-512 compares unsigned natively)

  MPSM_SIMD_TARGET("avx512f")
  inline void Load(const Tuple* block) {
    const __m512i t0 = _mm512_loadu_si512(block);
    const __m512i t1 = _mm512_loadu_si512(block + 4);
    const __m512i t2 = _mm512_loadu_si512(block + 8);
    const __m512i t3 = _mm512_loadu_si512(block + 12);
    // maskz unpack: see CountLessAvx512.
    a = _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t0, t1);
    b = _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t2, t3);
  }

  MPSM_SIMD_TARGET("avx512f")
  inline size_t CountLess(uint64_t key) const {
    const __m512i pivot = _mm512_set1_epi64(static_cast<long long>(key));
    const unsigned mask =
        static_cast<unsigned>(_mm512_cmplt_epu64_mask(a, pivot)) |
        (static_cast<unsigned>(_mm512_cmplt_epu64_mask(b, pivot)) << 8);
    return static_cast<size_t>(__builtin_popcount(mask));
  }
};

#endif  // MPSM_SIMD_X86

}  // namespace mpsm::simd

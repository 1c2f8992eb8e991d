#include "simd/histogram_kernels.h"

#include <algorithm>

#include "simd/arch.h"
#include "simd/caps.h"

// GCC's _mm512_undefined_epi32 self-initializes (__Y = __Y) inside
// avx512fintrin.h; -Wall reports it against this TU when the unpack
// intrinsics inline into the kernels. Toolchain noise, not repo code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace mpsm::simd {

namespace {

uint64_t RadixDigitHistogramScalar(const Tuple* data, size_t n,
                                   uint32_t shift, uint64_t* histogram) {
  uint64_t key_or = 0;
  for (size_t i = 0; i < n; ++i) {
    ++histogram[(data[i].key >> shift) & 0xFF];
    key_or |= data[i].key;
  }
  return key_or;
}

uint32_t ClusterOf(uint64_t key, uint64_t min_key, uint32_t shift,
                   uint32_t num_clusters) {
  if (key <= min_key) return 0;
  const uint64_t cluster = (key - min_key) >> shift;
  return cluster >= num_clusters ? num_clusters - 1
                                 : static_cast<uint32_t>(cluster);
}

void ClusterHistogramScalar(const Tuple* data, size_t n, uint64_t min_key,
                            uint32_t shift, uint32_t num_clusters,
                            uint64_t* histogram) {
  for (size_t i = 0; i < n; ++i) {
    ++histogram[ClusterOf(data[i].key, min_key, shift, num_clusters)];
  }
}

void HashDigitHistogramScalar(const Tuple* data, size_t n,
                              uint64_t multiplier, uint32_t bit_offset,
                              uint32_t bit_count, uint64_t* histogram) {
  for (size_t i = 0; i < n; ++i) {
    ++histogram[((data[i].key * multiplier) << bit_offset) >>
                (64 - bit_count)];
  }
}

void KeyMinMaxScalar(const Tuple* data, size_t n, uint64_t* min_key,
                     uint64_t* max_key) {
  uint64_t lo = data[0].key;
  uint64_t hi = data[0].key;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, data[i].key);
    hi = std::max(hi, data[i].key);
  }
  *min_key = lo;
  *max_key = hi;
}

#if MPSM_SIMD_X86

constexpr long long kSignBias = static_cast<long long>(0x8000000000000000ull);

// ------------------------------------------------------------- AVX2

/// Keys of 8 consecutive tuples as two 4-lane vectors (lane order is a
/// permutation of the source order; histogram counting is
/// order-insensitive).
MPSM_SIMD_TARGET("avx2")
inline void LoadKeys8Avx2(const Tuple* block, __m256i* a, __m256i* b) {
  const __m256i t0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i t1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 2));
  const __m256i t2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i t3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 6));
  *a = _mm256_unpacklo_epi64(t0, t1);
  *b = _mm256_unpacklo_epi64(t2, t3);
}

/// 64-bit low-half multiply (AVX2 has no mullo_epi64): three 32x32
/// partial products.
MPSM_SIMD_TARGET("avx2")
inline __m256i Mullo64Avx2(__m256i a, __m256i c) {
  const __m256i lolo = _mm256_mul_epu32(a, c);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(c, 32)));
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

MPSM_SIMD_TARGET("avx2")
uint64_t RadixDigitHistogramAvx2(const Tuple* data, size_t n, uint32_t shift,
                                 uint64_t* histogram) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i mask = _mm256_set1_epi64x(0xFF);
  __m256i key_or = _mm256_setzero_si256();
  alignas(32) uint64_t digits[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a, b;
    LoadKeys8Avx2(data + i, &a, &b);
    key_or = _mm256_or_si256(key_or, _mm256_or_si256(a, b));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(digits),
        _mm256_and_si256(_mm256_srl_epi64(a, count), mask));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(digits + 4),
        _mm256_and_si256(_mm256_srl_epi64(b, count), mask));
    for (int d = 0; d < 8; ++d) ++histogram[digits[d]];
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), key_or);
  return lanes[0] | lanes[1] | lanes[2] | lanes[3] |
         RadixDigitHistogramScalar(data + i, n - i, shift, histogram);
}

MPSM_SIMD_TARGET("avx2")
void ClusterHistogramAvx2(const Tuple* data, size_t n, uint64_t min_key,
                          uint32_t shift, uint32_t num_clusters,
                          uint64_t* histogram) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i bias = _mm256_set1_epi64x(kSignBias);
  const __m256i min_vec =
      _mm256_set1_epi64x(static_cast<long long>(min_key));
  const __m256i min_biased = _mm256_xor_si256(min_vec, bias);
  const __m256i limit =
      _mm256_set1_epi64x(static_cast<long long>(num_clusters - 1));
  const __m256i limit_biased = _mm256_xor_si256(limit, bias);
  alignas(32) uint64_t clusters[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i keys[2];
    LoadKeys8Avx2(data + i, &keys[0], &keys[1]);
    for (int half = 0; half < 2; ++half) {
      const __m256i k = keys[half];
      // key > min_key (unsigned): lanes at or below min clamp to 0.
      const __m256i above =
          _mm256_cmpgt_epi64(_mm256_xor_si256(k, bias), min_biased);
      const __m256i diff =
          _mm256_and_si256(_mm256_sub_epi64(k, min_vec), above);
      __m256i cluster = _mm256_srl_epi64(diff, count);
      const __m256i over = _mm256_cmpgt_epi64(
          _mm256_xor_si256(cluster, bias), limit_biased);
      cluster = _mm256_blendv_epi8(cluster, limit, over);
      _mm256_store_si256(reinterpret_cast<__m256i*>(clusters + 4 * half),
                         cluster);
    }
    for (int d = 0; d < 8; ++d) ++histogram[clusters[d]];
  }
  ClusterHistogramScalar(data + i, n - i, min_key, shift, num_clusters,
                         histogram);
}

MPSM_SIMD_TARGET("avx2")
void HashDigitHistogramAvx2(const Tuple* data, size_t n, uint64_t multiplier,
                            uint32_t bit_offset, uint32_t bit_count,
                            uint64_t* histogram) {
  const __m256i mult =
      _mm256_set1_epi64x(static_cast<long long>(multiplier));
  const __m128i left = _mm_cvtsi32_si128(static_cast<int>(bit_offset));
  const __m128i right = _mm_cvtsi32_si128(static_cast<int>(64 - bit_count));
  alignas(32) uint64_t digits[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i keys[2];
    LoadKeys8Avx2(data + i, &keys[0], &keys[1]);
    for (int half = 0; half < 2; ++half) {
      const __m256i hash = Mullo64Avx2(keys[half], mult);
      const __m256i digit =
          _mm256_srl_epi64(_mm256_sll_epi64(hash, left), right);
      _mm256_store_si256(reinterpret_cast<__m256i*>(digits + 4 * half),
                         digit);
    }
    for (int d = 0; d < 8; ++d) ++histogram[digits[d]];
  }
  HashDigitHistogramScalar(data + i, n - i, multiplier, bit_offset,
                           bit_count, histogram);
}

/// Folds 4 biased keys into running biased min/max accumulators
/// (AVX2 has no unsigned 64-bit min/max; compare-and-blend on
/// sign-flipped lanes).
MPSM_SIMD_TARGET("avx2")
inline void FoldMinMaxAvx2(__m256i* lo_acc, __m256i* hi_acc,
                           __m256i biased) {
  *lo_acc = _mm256_blendv_epi8(*lo_acc, biased,
                               _mm256_cmpgt_epi64(*lo_acc, biased));
  *hi_acc = _mm256_blendv_epi8(*hi_acc, biased,
                               _mm256_cmpgt_epi64(biased, *hi_acc));
}

MPSM_SIMD_TARGET("avx2")
void KeyMinMaxAvx2(const Tuple* data, size_t n, uint64_t* min_key,
                   uint64_t* max_key) {
  if (n < 8) {
    KeyMinMaxScalar(data, n, min_key, max_key);
    return;
  }
  const __m256i bias = _mm256_set1_epi64x(kSignBias);
  __m256i a0, b0;
  LoadKeys8Avx2(data, &a0, &b0);
  __m256i lo = _mm256_xor_si256(a0, bias);
  __m256i hi = lo;
  FoldMinMaxAvx2(&lo, &hi, _mm256_xor_si256(b0, bias));
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    __m256i a, b;
    LoadKeys8Avx2(data + i, &a, &b);
    FoldMinMaxAvx2(&lo, &hi, _mm256_xor_si256(a, bias));
    FoldMinMaxAvx2(&lo, &hi, _mm256_xor_si256(b, bias));
  }
  alignas(32) uint64_t lanes[4];
  uint64_t result_lo = UINT64_MAX;
  uint64_t result_hi = 0;
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_xor_si256(lo, bias));
  for (int lane = 0; lane < 4; ++lane) {
    result_lo = std::min(result_lo, lanes[lane]);
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_xor_si256(hi, bias));
  for (int lane = 0; lane < 4; ++lane) {
    result_hi = std::max(result_hi, lanes[lane]);
  }
  for (; i < n; ++i) {
    result_lo = std::min(result_lo, data[i].key);
    result_hi = std::max(result_hi, data[i].key);
  }
  *min_key = result_lo;
  *max_key = result_hi;
}

// ----------------------------------------------------------- AVX-512

MPSM_SIMD_TARGET("avx512f")
inline void LoadKeys16Avx512(const Tuple* block, __m512i* a, __m512i* b) {
  const __m512i t0 = _mm512_loadu_si512(block);
  const __m512i t1 = _mm512_loadu_si512(block + 4);
  const __m512i t2 = _mm512_loadu_si512(block + 8);
  const __m512i t3 = _mm512_loadu_si512(block + 12);
  // maskz unpack: see merge_kernels.h CountLessAvx512.
  *a = _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t0, t1);
  *b = _mm512_maskz_unpacklo_epi64(static_cast<__mmask8>(0xFF), t2, t3);
}

MPSM_SIMD_TARGET("avx512f")
inline __m512i Mullo64Avx512(__m512i a, __m512i c) {
  const __m512i lolo = _mm512_mul_epu32(a, c);
  const __m512i cross =
      _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(a, 32), c),
                       _mm512_mul_epu32(a, _mm512_srli_epi64(c, 32)));
  return _mm512_add_epi64(lolo, _mm512_slli_epi64(cross, 32));
}

MPSM_SIMD_TARGET("avx512f")
uint64_t RadixDigitHistogramAvx512(const Tuple* data, size_t n,
                                   uint32_t shift, uint64_t* histogram) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m512i mask = _mm512_set1_epi64(0xFF);
  __m512i key_or = _mm512_setzero_si512();
  alignas(64) uint64_t digits[16];
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i a, b;
    LoadKeys16Avx512(data + i, &a, &b);
    key_or = _mm512_or_si512(key_or, _mm512_or_si512(a, b));
    _mm512_store_si512(digits,
                       _mm512_and_si512(_mm512_srl_epi64(a, count), mask));
    _mm512_store_si512(digits + 8,
                       _mm512_and_si512(_mm512_srl_epi64(b, count), mask));
    for (int d = 0; d < 16; ++d) ++histogram[digits[d]];
  }
  return _mm512_reduce_or_epi64(key_or) |
         RadixDigitHistogramScalar(data + i, n - i, shift, histogram);
}

MPSM_SIMD_TARGET("avx512f")
void ClusterHistogramAvx512(const Tuple* data, size_t n, uint64_t min_key,
                            uint32_t shift, uint32_t num_clusters,
                            uint64_t* histogram) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m512i min_vec =
      _mm512_set1_epi64(static_cast<long long>(min_key));
  const __m512i limit =
      _mm512_set1_epi64(static_cast<long long>(num_clusters - 1));
  alignas(64) uint64_t clusters[16];
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i keys[2];
    LoadKeys16Avx512(data + i, &keys[0], &keys[1]);
    for (int half = 0; half < 2; ++half) {
      const __m512i k = keys[half];
      const __mmask8 above = _mm512_cmpgt_epu64_mask(k, min_vec);
      const __m512i diff =
          _mm512_maskz_sub_epi64(above, k, min_vec);
      const __m512i cluster =
          _mm512_min_epu64(_mm512_srl_epi64(diff, count), limit);
      _mm512_store_si512(clusters + 8 * half, cluster);
    }
    for (int d = 0; d < 16; ++d) ++histogram[clusters[d]];
  }
  ClusterHistogramScalar(data + i, n - i, min_key, shift, num_clusters,
                         histogram);
}

MPSM_SIMD_TARGET("avx512f")
void HashDigitHistogramAvx512(const Tuple* data, size_t n,
                              uint64_t multiplier, uint32_t bit_offset,
                              uint32_t bit_count, uint64_t* histogram) {
  const __m512i mult =
      _mm512_set1_epi64(static_cast<long long>(multiplier));
  const __m128i left = _mm_cvtsi32_si128(static_cast<int>(bit_offset));
  const __m128i right = _mm_cvtsi32_si128(static_cast<int>(64 - bit_count));
  alignas(64) uint64_t digits[16];
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i keys[2];
    LoadKeys16Avx512(data + i, &keys[0], &keys[1]);
    for (int half = 0; half < 2; ++half) {
      const __m512i hash = Mullo64Avx512(keys[half], mult);
      _mm512_store_si512(
          digits + 8 * half,
          _mm512_srl_epi64(_mm512_sll_epi64(hash, left), right));
    }
    for (int d = 0; d < 16; ++d) ++histogram[digits[d]];
  }
  HashDigitHistogramScalar(data + i, n - i, multiplier, bit_offset,
                           bit_count, histogram);
}

MPSM_SIMD_TARGET("avx512f")
void KeyMinMaxAvx512(const Tuple* data, size_t n, uint64_t* min_key,
                     uint64_t* max_key) {
  if (n < 16) {
    KeyMinMaxScalar(data, n, min_key, max_key);
    return;
  }
  __m512i a0, b0;
  LoadKeys16Avx512(data, &a0, &b0);
  __m512i lo = _mm512_min_epu64(a0, b0);
  __m512i hi = _mm512_max_epu64(a0, b0);
  size_t i = 16;
  for (; i + 16 <= n; i += 16) {
    __m512i a, b;
    LoadKeys16Avx512(data + i, &a, &b);
    lo = _mm512_min_epu64(lo, _mm512_min_epu64(a, b));
    hi = _mm512_max_epu64(hi, _mm512_max_epu64(a, b));
  }
  uint64_t result_lo = _mm512_reduce_min_epu64(lo);
  uint64_t result_hi = _mm512_reduce_max_epu64(hi);
  for (; i < n; ++i) {
    result_lo = std::min(result_lo, data[i].key);
    result_hi = std::max(result_hi, data[i].key);
  }
  *min_key = result_lo;
  *max_key = result_hi;
}

#endif  // MPSM_SIMD_X86

}  // namespace

uint64_t RadixDigitHistogram(const Tuple* data, size_t n, uint32_t shift,
                             uint64_t* histogram, SimdKind kind) {
  switch (Resolve(kind)) {
#if MPSM_SIMD_X86
    case SimdKind::kAvx512:
      return RadixDigitHistogramAvx512(data, n, shift, histogram);
    case SimdKind::kAvx2:
      return RadixDigitHistogramAvx2(data, n, shift, histogram);
#endif
    default:
      return RadixDigitHistogramScalar(data, n, shift, histogram);
  }
}

void ClusterHistogram(const Tuple* data, size_t n, uint64_t min_key,
                      uint32_t shift, uint32_t num_clusters,
                      uint64_t* histogram, SimdKind kind) {
  switch (Resolve(kind)) {
#if MPSM_SIMD_X86
    case SimdKind::kAvx512:
      ClusterHistogramAvx512(data, n, min_key, shift, num_clusters,
                             histogram);
      return;
    case SimdKind::kAvx2:
      ClusterHistogramAvx2(data, n, min_key, shift, num_clusters, histogram);
      return;
#endif
    default:
      ClusterHistogramScalar(data, n, min_key, shift, num_clusters,
                             histogram);
  }
}

void HashDigitHistogram(const Tuple* data, size_t n, uint64_t multiplier,
                        uint32_t bit_offset, uint32_t bit_count,
                        uint64_t* histogram, SimdKind kind) {
  switch (Resolve(kind)) {
#if MPSM_SIMD_X86
    case SimdKind::kAvx512:
      HashDigitHistogramAvx512(data, n, multiplier, bit_offset, bit_count,
                               histogram);
      return;
    case SimdKind::kAvx2:
      HashDigitHistogramAvx2(data, n, multiplier, bit_offset, bit_count,
                             histogram);
      return;
#endif
    default:
      HashDigitHistogramScalar(data, n, multiplier, bit_offset, bit_count,
                               histogram);
  }
}

void KeyMinMax(const Tuple* data, size_t n, uint64_t* min_key,
               uint64_t* max_key, SimdKind kind) {
  switch (Resolve(kind)) {
#if MPSM_SIMD_X86
    case SimdKind::kAvx512:
      KeyMinMaxAvx512(data, n, min_key, max_key);
      return;
    case SimdKind::kAvx2:
      KeyMinMaxAvx2(data, n, min_key, max_key);
      return;
#endif
    default:
      KeyMinMaxScalar(data, n, min_key, max_key);
  }
}

}  // namespace mpsm::simd

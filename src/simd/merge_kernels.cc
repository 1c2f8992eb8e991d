#include "simd/merge_kernels.h"

namespace mpsm::simd {

#if MPSM_SIMD_X86

namespace {

// Pointer-form wrappers over the inline kernels (the searches call
// through AdvanceFn; one call per probe window is noise there).
size_t AdvanceAvx2(const Tuple* data, size_t begin, size_t n, uint64_t key) {
  return AdvanceLowerBoundAvx2(data, begin, n, key);
}

size_t AdvanceAvx512(const Tuple* data, size_t begin, size_t n,
                     uint64_t key) {
  return AdvanceLowerBoundAvx512(data, begin, n, key);
}

}  // namespace

#endif  // MPSM_SIMD_X86

AdvanceFn AdvanceForKind(SimdKind resolved) {
  switch (resolved) {
#if MPSM_SIMD_X86
    case SimdKind::kAvx2:
      return &AdvanceAvx2;
    case SimdKind::kAvx512:
      return &AdvanceAvx512;
#endif
    default:
      return nullptr;  // kScalar (and unprobed kinds off-x86)
  }
}

}  // namespace mpsm::simd

// SimdKind enum, split from the kernel headers so the sort config and
// the kernel entry points can name a kind without pulling in the
// dispatch machinery (CPUID probes, intrinsics) — same pattern as
// io/io_backend_kind.h and partition/scatter_kind.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace mpsm::simd {

/// Which vector ISA the merge-advance, key-range and histogram kernels
/// run on.
/// Widths are cumulative: every non-scalar kind keeps the scalar tail
/// loop, and kAuto resolves to the widest kind this build *and* this
/// CPU support (simd::Resolve, caps.h). The values are explicit so a
/// kind keeps its encoding now that the SSE kind (1) is retired.
enum class SimdKind : uint8_t {
  kScalar = 0,  // one key per compare (the correctness oracle / A/B base)
  kAvx2 = 2,    // AVX2: 4 keys per 256-bit register, 8-tuple blocks
  kAvx512 = 3,  // AVX-512F: 8 keys per 512-bit register, 16-tuple blocks
  kAuto = 4,    // widest supported kind (cached runtime CPUID probe)
};

/// Name of a SimdKind ("scalar", "avx2", "avx512", "auto").
const char* SimdKindName(SimdKind kind);

/// Parses a kind name (the strings SimdKindName emits); nullopt on
/// anything else.
std::optional<SimdKind> ParseSimdKind(std::string_view name);

}  // namespace mpsm::simd

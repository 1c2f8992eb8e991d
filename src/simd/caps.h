// Runtime SIMD capability probe and kind resolution.
//
// Mirrors the io_uring probe pattern from src/io/: compile-time gates
// decide which kernels exist in the binary (x86 + a compiler that
// supports per-function target attributes, so no global -mavx2 is
// required), and a cached runtime CPUID probe decides which of them
// this machine can actually execute. simd::Resolve maps a requested
// SimdKind onto that intersection: kAuto picks the widest supported
// kind, and an explicit kind on a host without it degrades to the
// widest *narrower* kind instead of faulting (a kernel row asking for
// avx512 on an avx2 box measures avx2, it does not SIGILL). The joins
// request kAuto, the one kind MPSM_SIMD overrides; JoinPlan/JoinReport
// print the kind they ran at.
#pragma once

#include <vector>

#include "simd/simd_kind.h"

namespace mpsm::simd {

/// What this build + this CPU can execute (compile-time kernel gates
/// intersected with the cached CPUID probe).
struct Caps {
  bool avx2 = false;
  bool avx512f = false;
};

/// The host's capabilities; probed once, cached.
const Caps& DetectCaps();

/// Resolves `kind` to a concrete executable kind: kAuto becomes the
/// widest supported kind, an unsupported explicit kind degrades to the
/// widest supported narrower one (kScalar always executes). The
/// MPSM_SIMD environment variable, when set to a kind name, replaces
/// kAuto before resolution: it is the one switch of the joins' kind,
/// since every join requests kAuto (CI forces "scalar" and "avx2"
/// through it). Explicit kinds — kernel rows, the kind-sweep tests —
/// ignore it.
SimdKind Resolve(SimdKind kind);

/// Keys compared per vector register for a *resolved* kind (1, 4, 8):
/// the planner's keys_per_compare coefficient.
uint32_t KeysPerCompare(SimdKind resolved);

/// Every concrete kind this host can execute, narrowest first
/// (kScalar always included) — what the kernel-matrix tests sweep.
std::vector<SimdKind> SupportedKinds();

}  // namespace mpsm::simd

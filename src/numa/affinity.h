// Thread-to-core pinning.
#pragma once

#include <cstdint>

namespace mpsm::numa {

/// Pins the calling thread to `core`. Returns false when the platform
/// refuses (e.g. the core does not exist on the development machine, or
/// the container restricts affinity); callers treat pinning as advisory.
bool PinCurrentThreadToCore(uint32_t core);

}  // namespace mpsm::numa

// IoBackendKind enum, split from io_backend.h so reports can name the
// engine without pulling in the backend machinery (threads, ring
// buffers) — same pattern as parallel/scheduler_kind.h.
#pragma once

#include <cstdint>

namespace mpsm::io {

/// Which engine performs the asynchronous page reads of the spill path.
/// The values are explicit so a kind keeps its encoding now that the
/// blocking sync kind (0) is retired.
enum class IoBackendKind : uint8_t {
  kThreadpool = 1,  // portable worker threads servicing a submission queue
  kUring = 2,       // Linux io_uring (raw syscalls; needs kernel support)
  kAuto = 3,        // uring when the runtime probe succeeds, else threadpool
};

/// Name of an IoBackendKind ("threadpool", "uring", "auto").
const char* IoBackendKindName(IoBackendKind kind);

}  // namespace mpsm::io

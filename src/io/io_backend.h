// AsyncIoBackend: the submission/completion interface every page-I/O
// engine implements (src/io/ design: docs/io.md).
//
// A backend accepts *vectored reads* — one file range scattered into up
// to kMaxIovPerRead destination buffers — and completes them out of
// order. Two implementations ship: a portable threadpool backend, and
// a Linux io_uring backend built on raw syscalls (<linux/io_uring.h>
// at compile time, io_uring_setup probed at runtime, so CI containers
// and macOS keep working).
//
// Backends are deliberately dumb: no coalescing, no budgets, no
// routing. That policy lives in IoScheduler (io_scheduler.h), which is
// what the engine talks to.
#pragma once

#include <sys/uio.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "io/io_backend_kind.h"
#include "util/status.h"

namespace mpsm::io {

/// Most destination buffers one vectored read can scatter into (the
/// coalescing cap of IoScheduler; well under the kernel's IOV_MAX).
inline constexpr size_t kMaxIovPerRead = 16;

/// One vectored read: fill iov[0..iov_count) from `fd` starting at
/// `offset`. Every buffer must stay valid until the read completes.
struct IoRead {
  int fd = -1;
  uint64_t offset = 0;
  uint32_t iov_count = 0;
  std::array<::iovec, kMaxIovPerRead> iov{};
  /// Opaque caller tag, returned verbatim in the completion.
  uint64_t user_data = 0;
  /// Synthetic per-read device latency (models a disk on page-cached
  /// dev machines). Honored by the software backends; the uring
  /// backend talks to the real device and ignores it.
  uint32_t delay_us = 0;

  /// Sum of the iov lengths.
  size_t TotalBytes() const {
    size_t bytes = 0;
    for (uint32_t i = 0; i < iov_count; ++i) bytes += iov[i].iov_len;
    return bytes;
  }
};

/// One vectored write: gather iov[0..iov_count) to `fd` starting at
/// `offset` (the buffer-pool write-back path). Every buffer must stay
/// valid — and unmodified — until the write completes.
struct IoWrite {
  int fd = -1;
  uint64_t offset = 0;
  uint32_t iov_count = 0;
  std::array<::iovec, kMaxIovPerRead> iov{};
  /// Opaque caller tag, returned verbatim in the completion.
  uint64_t user_data = 0;
  /// Synthetic per-write device latency (see IoRead::delay_us).
  uint32_t delay_us = 0;

  /// Sum of the iov lengths.
  size_t TotalBytes() const {
    size_t bytes = 0;
    for (uint32_t i = 0; i < iov_count; ++i) bytes += iov[i].iov_len;
    return bytes;
  }
};

/// One durability barrier: fdatasync `fd`, completing only once every
/// byte previously written to it is on stable storage (the recovery
/// journal's commit discipline — docs/recovery.md). The caller is
/// responsible for ordering: flush after the writes it must cover have
/// *completed* (IoScheduler::SubmitFlush adds that write barrier).
struct IoFlush {
  int fd = -1;
  /// Opaque caller tag, returned verbatim in the completion.
  uint64_t user_data = 0;
  /// Synthetic device latency (see IoRead::delay_us).
  uint32_t delay_us = 0;
};

/// One finished read, write, or flush. A short transfer (EOF inside a
/// read range, full device on a write) or device error surfaces as a
/// non-OK status; EINTR/EAGAIN-class transient failures surface as
/// kUnavailable so the scheduler can retry them.
struct IoCompletion {
  uint64_t user_data = 0;
  Status status;
};

/// Asynchronous vectored-I/O engine. Thread-safe: any thread may
/// submit or reap. The caller bounds in-flight operations to
/// queue_depth() (IoScheduler enforces this; backends may reject excess
/// submissions). Reads and writes complete through the same
/// PollCompletions stream, distinguished by user_data.
class AsyncIoBackend {
 public:
  virtual ~AsyncIoBackend() = default;

  /// Queues one read. Buffers and the completion slot they imply stay
  /// owned by the caller until the matching completion is reaped.
  virtual Status SubmitRead(const IoRead& read) = 0;

  /// Queues one write. Source buffers stay caller-owned (and must stay
  /// unmodified) until the matching completion is reaped.
  virtual Status SubmitWrite(const IoWrite& write) = 0;

  /// Queues one fdatasync barrier (threadpool: pool thread; uring:
  /// IORING_OP_FSYNC | IORING_FSYNC_DATASYNC).
  virtual Status SubmitFlush(const IoFlush& flush) = 0;

  /// Reaps up to `max` completions into `out`, returning the count.
  /// With `block` and operations in flight, waits for at least one;
  /// without `block` (or with nothing in flight) returns immediately.
  virtual size_t PollCompletions(IoCompletion* out, size_t max,
                                 bool block) = 0;

  /// Operations submitted and not yet reaped.
  virtual size_t InFlight() const = 0;

  virtual size_t queue_depth() const = 0;
  virtual IoBackendKind kind() const = 0;
};

/// True when this build has the io_uring header *and* the running
/// kernel accepts io_uring_setup (probed once, cached).
bool UringSupported();

/// Resolves kAuto to a concrete backend for this host: kUring when
/// UringSupported(), else kThreadpool. Concrete kinds pass through.
IoBackendKind ResolveIoBackendKind(IoBackendKind kind);

/// Creates a backend with the given queue depth (>= 1). kAuto resolves
/// via ResolveIoBackendKind; an explicit kUring on a host without
/// support returns NotSupported (the query fails, not the process).
Result<std::unique_ptr<AsyncIoBackend>> CreateIoBackend(IoBackendKind kind,
                                                        size_t queue_depth);

}  // namespace mpsm::io

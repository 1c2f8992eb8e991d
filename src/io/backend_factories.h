// Internal: per-backend factory functions and the shared blocking-read
// helper, so io_backend.cc (the public factory) can dispatch without
// the backend classes leaking into the public header.
#pragma once

#include <cstddef>
#include <memory>

#include "io/io_backend.h"
#include "util/status.h"

namespace mpsm::io {

std::unique_ptr<AsyncIoBackend> CreateThreadpoolBackend(size_t queue_depth);
/// Nullptr when the build lacks <linux/io_uring.h> or ring setup fails.
std::unique_ptr<AsyncIoBackend> CreateUringBackend(size_t queue_depth);

/// Executes `read` synchronously: preadv with EINTR retry and
/// short-read resumption; a true EOF inside the range is an IoError.
/// Honors read.delay_us (the synthetic device). The threadpool
/// backend's pool threads run it.
Status PerformBlockingRead(const IoRead& read);

/// Executes `write` synchronously: pwritev with EINTR retry and
/// short-write resumption; zero progress (disk full) is an IoError.
/// Honors write.delay_us. The threadpool backend's pool threads run it.
Status PerformBlockingWrite(const IoWrite& write);

/// Executes `flush` synchronously: fdatasync with EINTR retry. Honors
/// flush.delay_us. The threadpool backend's pool threads run it.
Status PerformBlockingFlush(const IoFlush& flush);

}  // namespace mpsm::io

#include "io/io_backend.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "io/backend_factories.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/syscall.h>
#define MPSM_HAVE_URING_HEADER 1
#endif

namespace mpsm::io {

const char* IoBackendKindName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kThreadpool:
      return "threadpool";
    case IoBackendKind::kUring:
      return "uring";
    case IoBackendKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<IoBackendKind> ParseIoBackendKind(std::string_view name) {
  if (name == "threadpool") return IoBackendKind::kThreadpool;
  if (name == "uring") return IoBackendKind::kUring;
  if (name == "auto") return IoBackendKind::kAuto;
  return std::nullopt;
}

Status PerformBlockingRead(const IoRead& read) {
  if (read.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(read.delay_us));
  }
  // Resume after short reads: preadv may legally return less than the
  // full range (signals, readahead boundaries). Only a zero return —
  // EOF inside the requested range — is a hard error.
  std::array<::iovec, kMaxIovPerRead> iov = read.iov;
  uint32_t first = 0;
  uint32_t count = read.iov_count;
  uint64_t offset = read.offset;
  while (count > 0) {
    const ssize_t n = ::preadv(read.fd, iov.data() + first,
                               static_cast<int>(count),
                               static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable(std::string("preadv: ") +
                                   std::strerror(errno));
      }
      return Status::IoError(std::string("preadv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("preadv: unexpected EOF (short read)");
    }
    offset += static_cast<uint64_t>(n);
    size_t consumed = static_cast<size_t>(n);
    while (count > 0 && consumed >= iov[first].iov_len) {
      consumed -= iov[first].iov_len;
      ++first;
      --count;
    }
    if (count > 0 && consumed > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + consumed;
      iov[first].iov_len -= consumed;
    }
  }
  return Status::OK();
}

Status PerformBlockingWrite(const IoWrite& write) {
  if (write.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(write.delay_us));
  }
  // Resume after short writes (signals, quota boundaries) instead of
  // failing the query on a legal partial pwritev. Zero progress means
  // the device accepted nothing (disk full) — a hard error.
  std::array<::iovec, kMaxIovPerRead> iov = write.iov;
  uint32_t first = 0;
  uint32_t count = write.iov_count;
  uint64_t offset = write.offset;
  while (count > 0) {
    const ssize_t n = ::pwritev(write.fd, iov.data() + first,
                                static_cast<int>(count),
                                static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable(std::string("pwritev: ") +
                                   std::strerror(errno));
      }
      return Status::IoError(std::string("pwritev: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("pwritev: no progress (disk full?)");
    }
    offset += static_cast<uint64_t>(n);
    size_t consumed = static_cast<size_t>(n);
    while (count > 0 && consumed >= iov[first].iov_len) {
      consumed -= iov[first].iov_len;
      ++first;
      --count;
    }
    if (count > 0 && consumed > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + consumed;
      iov[first].iov_len -= consumed;
    }
  }
  return Status::OK();
}

Status PerformBlockingFlush(const IoFlush& flush) {
  if (flush.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(flush.delay_us));
  }
  while (::fdatasync(flush.fd) != 0) {
    if (errno == EINTR) continue;
    return Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

bool UringSupported() {
#ifdef MPSM_HAVE_URING_HEADER
  // Probe once: io_uring_setup with a tiny ring. EPERM/ENOSYS (seccomp
  // filters, old kernels) both mean "no".
  static const bool supported = [] {
    struct io_uring_params params {};
    const long fd = ::syscall(__NR_io_uring_setup, 1u, &params);
    if (fd < 0) return false;
    ::close(static_cast<int>(fd));
    return true;
  }();
  return supported;
#else
  return false;
#endif
}

IoBackendKind ResolveIoBackendKind(IoBackendKind kind) {
  if (kind != IoBackendKind::kAuto) return kind;
  return UringSupported() ? IoBackendKind::kUring : IoBackendKind::kThreadpool;
}

Result<std::unique_ptr<AsyncIoBackend>> CreateIoBackend(IoBackendKind kind,
                                                        size_t queue_depth) {
  if (queue_depth == 0) {
    return Status::InvalidArgument("io queue depth must be >= 1");
  }
  switch (ResolveIoBackendKind(kind)) {
    case IoBackendKind::kThreadpool:
      return CreateThreadpoolBackend(queue_depth);
    case IoBackendKind::kUring: {
      auto backend = CreateUringBackend(queue_depth);
      if (backend == nullptr) {
        return Status::NotSupported(
            "io_uring unavailable (kernel too old, seccomp-filtered, or "
            "built without <linux/io_uring.h>); use io_backend=auto to "
            "fall back to the threadpool backend");
      }
      return backend;
    }
    case IoBackendKind::kAuto:
      break;  // unreachable: ResolveIoBackendKind returned a concrete kind
  }
  return Status::Internal("unresolved io backend kind");
}

}  // namespace mpsm::io

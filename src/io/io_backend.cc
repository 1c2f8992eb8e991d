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

namespace {

// Runs one vectored transfer (`transfer` is preadv or pwritev) to
// completion. A transfer may legally move less than the full range
// (signals, readahead or quota boundaries): resume after short
// transfers and EINTR. EAGAIN-class failures surface as kUnavailable
// so the scheduler retries them; a zero return — EOF inside a read
// range, a device that accepts nothing — fails with `no_progress`.
template <typename Request, typename Transfer>
Status PerformBlockingTransfer(const Request& request, Transfer transfer,
                               const char* name, const char* no_progress) {
  if (request.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(request.delay_us));
  }
  std::array<::iovec, kMaxIovPerRead> iov = request.iov;
  uint32_t first = 0;
  uint32_t count = request.iov_count;
  uint64_t offset = request.offset;
  while (count > 0) {
    const ssize_t n = transfer(request.fd, iov.data() + first,
                               static_cast<int>(count),
                               static_cast<off_t>(offset));
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      const std::string message = std::string(name) + ": " + std::strerror(err);
      if (err == EAGAIN || err == EWOULDBLOCK) {
        return Status::Unavailable(message);
      }
      return Status::IoError(message);
    }
    if (n == 0) return Status::IoError(no_progress);
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

}  // namespace

Status PerformBlockingRead(const IoRead& read) {
  return PerformBlockingTransfer(read, ::preadv, "preadv",
                                 "preadv: unexpected EOF (short read)");
}

Status PerformBlockingWrite(const IoWrite& write) {
  return PerformBlockingTransfer(write, ::pwritev, "pwritev",
                                 "pwritev: no progress (disk full?)");
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

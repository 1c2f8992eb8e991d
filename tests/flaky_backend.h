// FlakyBackend: the shared fault-injection AsyncIoBackend for tests
// (io_test.cc, bufferpool_test.cc, recovery_test.cc).
//
// Wraps a real threadpool backend (completions arrive on its pool
// threads) and injects failures by policy:
//   - periodic:  every Nth read / write / flush fails (the original
//     io_test.cc mode, exercising steady-state error propagation),
//   - fail-once: the first N reads / writes fail then the backend
//     recovers (the IoScheduler transient-retry satellite — injected
//     with kUnavailable these must not fail the query),
//   - torn write: a failed write first persists only the front half of
//     its bytes, modeling a crash mid-pwritev; recovery must detect
//     the torn page via checksums, never trust it.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "io/backend_factories.h"
#include "io/io_backend.h"
#include "util/status.h"

namespace mpsm::io {

class FlakyBackend final : public AsyncIoBackend {
 public:
  struct Options {
    /// Every Nth read / write / flush submission fails; 0 disables.
    uint32_t read_failure_period = 0;
    uint32_t write_failure_period = 0;
    uint32_t flush_failure_period = 0;
    /// The first N reads / writes fail, later ones succeed (transient
    /// fault the scheduler's bounded retry should absorb).
    uint32_t fail_once_reads = 0;
    uint32_t fail_once_writes = 0;
    /// Status code injected failures carry (kIoError models a dying
    /// device; kUnavailable an EINTR/EAGAIN-class transient).
    StatusCode failure_code = StatusCode::kIoError;
    /// Failed writes persist the front half of their bytes first — a
    /// torn write. Only meaningful for write failures.
    bool torn_writes = false;
  };

  FlakyBackend(size_t queue_depth, Options options)
      : inner_(CreateThreadpoolBackend(queue_depth)), options_(options) {}

  /// Back-compat shorthand: periodic EIO on reads (and writes).
  FlakyBackend(size_t queue_depth, uint32_t failure_period,
               uint32_t write_failure_period = 0)
      : FlakyBackend(queue_depth, Options{failure_period,
                                          write_failure_period}) {}

  Status SubmitRead(const IoRead& read) override {
    const uint32_t n = ++reads_;
    if (n <= options_.fail_once_reads ||
        (options_.read_failure_period != 0 &&
         n % options_.read_failure_period == 0)) {
      InjectFailure(read.user_data, "injected read fault");
      return Status::OK();
    }
    return inner_->SubmitRead(read);
  }

  Status SubmitWrite(const IoWrite& write) override {
    const uint32_t n = ++writes_;
    if (n <= options_.fail_once_writes ||
        (options_.write_failure_period != 0 &&
         n % options_.write_failure_period == 0)) {
      if (options_.torn_writes) TearWrite(write);
      InjectFailure(write.user_data, "injected write fault");
      return Status::OK();
    }
    return inner_->SubmitWrite(write);
  }

  Status SubmitFlush(const IoFlush& flush) override {
    if (options_.flush_failure_period != 0 &&
        ++flushes_ % options_.flush_failure_period == 0) {
      InjectFailure(flush.user_data, "injected flush fault");
      return Status::OK();
    }
    return inner_->SubmitFlush(flush);
  }

  size_t PollCompletions(IoCompletion* out, size_t max,
                         bool block) override {
    size_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (n < max && !failed_.empty()) {
        out[n++] = std::move(failed_.front());
        failed_.erase(failed_.begin());
      }
    }
    if (n < max) {
      n += inner_->PollCompletions(out + n, max - n, block && n == 0);
    }
    return n;
  }

  size_t InFlight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_.size() + inner_->InFlight();
  }

  size_t queue_depth() const override { return inner_->queue_depth(); }
  IoBackendKind kind() const override { return inner_->kind(); }

  uint32_t reads_seen() const { return reads_.load(); }
  uint32_t writes_seen() const { return writes_.load(); }

 private:
  void InjectFailure(uint64_t user_data, const char* what) {
    IoCompletion failed;
    failed.user_data = user_data;
    failed.status = options_.failure_code == StatusCode::kUnavailable
                        ? Status::Unavailable(what)
                        : Status::IoError(what);
    std::lock_guard<std::mutex> lock(mu_);
    failed_.push_back(std::move(failed));
  }

  /// Persists the front half of the write's bytes — what a crash in
  /// the middle of a pwritev leaves on disk.
  void TearWrite(const IoWrite& write) {
    size_t remaining = write.TotalBytes() / 2;
    uint64_t offset = write.offset;
    for (uint32_t i = 0; i < write.iov_count && remaining > 0; ++i) {
      const size_t n = std::min(remaining, write.iov[i].iov_len);
      (void)!::pwrite(write.fd, write.iov[i].iov_base, n,
                      static_cast<off_t>(offset));
      offset += write.iov[i].iov_len;
      remaining -= n;
    }
  }

  std::unique_ptr<AsyncIoBackend> inner_;
  const Options options_;
  std::atomic<uint32_t> reads_{0};
  std::atomic<uint32_t> writes_{0};
  std::atomic<uint32_t> flushes_{0};
  mutable std::mutex mu_;
  std::vector<IoCompletion> failed_;
};

}  // namespace mpsm::io

// IoScheduler: batched, depth-capped page-fetch scheduling over an
// AsyncIoBackend (docs/io.md).
//
// Callers submit PageFetchRequests — "read page id P into this pinned
// buffer, and route the completion to queue Q" — and, for the buffer
// pool's write-back path, PageWriteRequests ("write this frame to page
// P"). The scheduler
//   - coalesces runs of *adjacent* page ids into single vectored reads
//     (pages are contiguous on the spool file, so consecutive ids are
//     one device request), and likewise adjacent write-backs into
//     vectored writes,
//   - enforces a queue-depth cap toward the backend (shared by reads
//     and writes; reads go first),
//   - routes completions into per-queue lists (the spill path's buffer
//     pool owns two: frame loads and write-backs), and
//   - keeps the counters the engine reports (pages_read, io_batches,
//     coalesced_pages, io_stall_ns, mean/peak queue depth).
//
// Thread-safe: any worker may Submit, Pump, or Drain concurrently;
// Pump is how I/O progresses — there is no scheduler thread. A blocked
// caller pumps the scheduler, so its wait time becomes
// submission/completion work for everyone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "io/io_backend.h"
#include "util/status.h"

namespace mpsm::io {

/// Scheduler tuning; Create validates it. D-MPSM derives the backend
/// from its store (disk::DMpsmOptions) and runs it at
/// disk::kIoQueueDepth and disk::kIoBatchPages.
struct IoSchedulerOptions {
  /// Which engine performs the reads (the conformance tests drive each).
  IoBackendKind backend = IoBackendKind::kThreadpool;
  /// Most vectored reads in flight at the backend at once (>= 1).
  size_t queue_depth = 16;
  /// Most adjacent pages coalesced into one vectored read
  /// (1 <= batch <= kMaxIovPerRead).
  size_t batch_pages = 8;
  /// Completion queues (>= 1); requests name their queue.
  uint32_t completion_queues = 1;
  /// Most times a transiently failed batch (kUnavailable: EINTR/EAGAIN
  /// class) is re-submitted before the failure is routed to callers.
  /// 0 disables retry.
  uint32_t max_retries = 3;
  /// Backoff before the first retry; doubles per attempt (bounded
  /// exponential: attempt k waits retry_backoff_us << k).
  uint32_t retry_backoff_us = 100;

  Status Validate() const;
};

/// One page fetch: read page `page` into `dest` (exactly the store's
/// page_bytes), complete onto queue `queue` carrying `user_data`.
struct PageFetchRequest {
  uint64_t page = 0;
  char* dest = nullptr;
  uint64_t user_data = 0;
  uint32_t queue = 0;
};

/// One page write-back: write `src` (exactly page_bytes, caller-owned
/// and unmodified until completion) to page `page`, complete onto
/// queue `queue` carrying `user_data` (the buffer pool's flush path).
struct PageWriteRequest {
  uint64_t page = 0;
  const char* src = nullptr;
  uint64_t user_data = 0;
  uint32_t queue = 0;
};

/// One finished page fetch or write-back.
struct PageFetchCompletion {
  uint64_t user_data = 0;
  Status status;
};

/// Cumulative scheduler counters (JoinReport observability).
struct IoSchedulerStats {
  /// Pages whose reads completed successfully.
  uint64_t pages_read = 0;
  /// Vectored reads issued to the backend.
  uint64_t io_batches = 0;
  /// Pages that rode along in a batch beyond the first (coalescing
  /// wins: pages_read - io_batches when everything coalesced).
  uint64_t coalesced_pages = 0;
  /// Pages whose write-backs completed successfully.
  uint64_t pages_written = 0;
  /// Vectored writes issued to the backend.
  uint64_t write_batches = 0;
  /// Pages that rode along in a write batch beyond the first.
  uint64_t coalesced_write_pages = 0;
  /// Wall nanoseconds callers spent blocked on I/O with no productive
  /// work available (recorded by callers via AddStallNs).
  uint64_t io_stall_ns = 0;
  /// Pages re-submitted after a transient (kUnavailable) failure.
  uint64_t retries = 0;
  /// fdatasync barriers issued to the backend (journal durability).
  uint64_t flushes = 0;
  /// Mean backend operations in flight, sampled after each submission
  /// (reads and writes).
  double mean_queue_depth = 0;
  /// Peak backend operations in flight (reads and writes share the
  /// queue-depth cap).
  uint64_t peak_inflight_reads = 0;
};

/// Batched page-fetch scheduler over one spool file.
class IoScheduler {
 public:
  /// Creates a scheduler reading `page_bytes`-sized pages from `fd`
  /// (page id * page_bytes addressing). `delay_us` is the synthetic
  /// per-read device latency forwarded to software backends. Fails
  /// when the backend cannot be created (e.g. kUring unsupported).
  static Result<std::unique_ptr<IoScheduler>> Create(
      int fd, size_t page_bytes, uint32_t delay_us,
      IoSchedulerOptions options);

  /// As Create, with an injected backend (tests: fault injection).
  static Result<std::unique_ptr<IoScheduler>> CreateWithBackend(
      std::unique_ptr<AsyncIoBackend> backend, int fd, size_t page_bytes,
      uint32_t delay_us, IoSchedulerOptions options);

  ~IoScheduler();
  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Queues `count` fetches and starts as many as the queue-depth cap
  /// allows. Buffers stay caller-owned until the matching completion
  /// is drained.
  Status Submit(const PageFetchRequest* requests, size_t count);

  /// Queues `count` write-backs (coalesced like reads; reads are
  /// pushed first when both are pending — write-back is background
  /// work). Source buffers stay caller-owned and must stay unmodified
  /// until the matching completion is drained.
  Status SubmitWrites(const PageWriteRequest* requests, size_t count);

  /// Queues one fdatasync durability barrier on the spool fd, completed
  /// onto `queue` carrying `user_data`. Write-barrier ordering: the
  /// flush is not issued to the backend until every write submitted
  /// *before* this call has completed, so an OK flush completion means
  /// those writes are on stable storage (the journal's commit fence —
  /// docs/recovery.md). Writes submitted after the flush may overtake
  /// it; they are simply also covered if they complete first.
  Status SubmitFlush(uint64_t user_data, uint32_t queue);

  /// Drives I/O forward: pushes pending coalesced batches while the
  /// queue-depth cap allows and reaps ready backend completions into
  /// their queues. With `block`, waits for at least one completion when
  /// reads are in flight. Callers record any true blocking time via
  /// AddStallNs themselves (only they know which waits count as
  /// stall).
  Status Pump(bool block);

  /// Pops up to `max` completions from `queue`; returns the count.
  size_t Drain(uint32_t queue, PageFetchCompletion* out, size_t max);

  /// True while fetches are pending or in flight anywhere.
  bool Busy() const;

  /// Records caller wall time blocked with nothing productive to do.
  void AddStallNs(uint64_t ns);

  IoSchedulerStats stats() const;
  const IoSchedulerOptions& options() const { return options_; }
  const AsyncIoBackend& backend() const { return *backend_; }

 private:
  IoScheduler(std::unique_ptr<AsyncIoBackend> backend, int fd,
              size_t page_bytes, uint32_t delay_us,
              IoSchedulerOptions options);

  /// One page of an in-flight batch: where to route its completion,
  /// plus what is needed to re-queue it after a transient failure.
  struct BatchPage {
    uint64_t user_data = 0;
    uint32_t queue = 0;
    uint64_t page = 0;
    char* buf = nullptr;
    uint64_t seq = 0;       // write enqueue order (barrier tracking)
    uint32_t attempts = 0;  // transient-retry count so far
  };
  struct Batch {
    std::vector<BatchPage> pages;
    bool used = false;
    bool is_write = false;
    bool is_flush = false;
    /// Enqueue seq of the batch's first write page (FIFO: the minimum),
    /// tracked in inflight_write_seqs_ while the batch is in flight.
    uint64_t min_seq = 0;
  };

  /// One queued page transfer (read or write; `buf` is the const-cast
  /// source for writes — the backend never modifies write iovecs).
  struct PendingPage {
    uint64_t page = 0;
    char* buf = nullptr;
    uint64_t user_data = 0;
    uint32_t queue = 0;
    uint64_t seq = 0;
    uint32_t attempts = 0;
    /// Earliest submission time (transient-retry backoff); zero for
    /// first attempts.
    std::chrono::steady_clock::time_point not_before{};
  };

  /// One queued fdatasync barrier: eligible once every write with
  /// seq <= barrier has completed.
  struct PendingFlush {
    uint64_t barrier = 0;
    uint64_t user_data = 0;
    uint32_t queue = 0;
    uint32_t attempts = 0;
  };

  /// Builds + submits coalesced batches (reads first, then writes,
  /// then barrier-eligible flushes) while the depth cap allows; caller
  /// holds mu_ on entry and exit (dropped around backend calls).
  Status PushPendingLocked(std::unique_lock<std::mutex>& lock);
  /// Coalesces + submits one batch from the front of `queue`; caller
  /// holds mu_ (dropped around the backend call). Returns false when
  /// the depth cap blocks further submission from this queue.
  bool PushOneBatchLocked(std::unique_lock<std::mutex>& lock,
                          std::deque<PendingPage>& queue, bool is_write);
  /// Submits the front pending flush when its write barrier is clear;
  /// returns false when blocked (barrier, slots) or nothing pending.
  bool PushOneFlushLocked(std::unique_lock<std::mutex>& lock);
  /// True when every write submitted before `barrier` has completed.
  bool FlushBarrierClearLocked(uint64_t barrier) const;
  /// Routes a finished batch: re-queues transiently failed pages that
  /// have retries left (counting stats_.retries), routes everything
  /// else to its completion queue.
  void RouteBatchLocked(Batch& batch, const Status& status);
  /// Reaps backend completions and routes them; caller holds mu_ on
  /// entry and exit (dropped around backend calls). Returns reaped
  /// batch count.
  size_t ReapLocked(std::unique_lock<std::mutex>& lock, bool block);
  /// Earliest retry-backoff deadline among pending pages, if any.
  std::optional<std::chrono::steady_clock::time_point> NextRetryAtLocked()
      const;

  std::unique_ptr<AsyncIoBackend> backend_;
  const int fd_;
  const size_t page_bytes_;
  const uint32_t delay_us_;
  const IoSchedulerOptions options_;

  mutable std::mutex mu_;
  std::deque<PendingPage> pending_;
  std::deque<PendingPage> pending_writes_;
  std::deque<PendingFlush> pending_flushes_;
  std::vector<Batch> batches_;  // slot table, index == backend user_data
  std::vector<size_t> free_batches_;
  std::vector<std::deque<PageFetchCompletion>> queues_;
  size_t inflight_reads_ = 0;
  /// Per-write enqueue sequence (monotonic) and the min seqs of write
  /// batches currently in flight — together they answer "is every
  /// write before barrier B durable-ordered?" for SubmitFlush.
  uint64_t write_enqueue_seq_ = 0;
  std::multiset<uint64_t> inflight_write_seqs_;

  // Stats (under mu_ except the atomic stall counter).
  uint64_t pages_read_ = 0;
  uint64_t io_batches_ = 0;
  uint64_t coalesced_pages_ = 0;
  uint64_t pages_written_ = 0;
  uint64_t write_batches_ = 0;
  uint64_t coalesced_write_pages_ = 0;
  uint64_t depth_samples_sum_ = 0;
  uint64_t peak_inflight_reads_ = 0;
  uint64_t retries_ = 0;
  uint64_t flushes_ = 0;
  std::atomic<uint64_t> io_stall_ns_{0};
};

}  // namespace mpsm::io

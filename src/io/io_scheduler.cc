#include "io/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mpsm::io {

Status IoSchedulerOptions::Validate() const {
  if (queue_depth == 0) {
    return Status::InvalidArgument("queue_depth must be >= 1");
  }
  if (batch_pages == 0 || batch_pages > kMaxIovPerRead) {
    return Status::InvalidArgument(
        "batch_pages must be in [1, " +
        std::to_string(kMaxIovPerRead) + "]");
  }
  if (completion_queues == 0) {
    return Status::InvalidArgument("completion_queues must be >= 1");
  }
  return Status::OK();
}

Result<std::unique_ptr<IoScheduler>> IoScheduler::Create(
    int fd, size_t page_bytes, uint32_t delay_us,
    IoSchedulerOptions options) {
  MPSM_RETURN_NOT_OK(options.Validate());
  MPSM_ASSIGN_OR_RETURN(
      auto backend, CreateIoBackend(options.backend, options.queue_depth));
  return CreateWithBackend(std::move(backend), fd, page_bytes, delay_us,
                           std::move(options));
}

Result<std::unique_ptr<IoScheduler>> IoScheduler::CreateWithBackend(
    std::unique_ptr<AsyncIoBackend> backend, int fd, size_t page_bytes,
    uint32_t delay_us, IoSchedulerOptions options) {
  MPSM_RETURN_NOT_OK(options.Validate());
  if (backend == nullptr) {
    return Status::InvalidArgument("io backend must be non-null");
  }
  if (page_bytes == 0) {
    return Status::InvalidArgument("page_bytes must be >= 1");
  }
  return std::unique_ptr<IoScheduler>(
      new IoScheduler(std::move(backend), fd, page_bytes, delay_us,
                      std::move(options)));
}

IoScheduler::IoScheduler(std::unique_ptr<AsyncIoBackend> backend, int fd,
                         size_t page_bytes, uint32_t delay_us,
                         IoSchedulerOptions options)
    : backend_(std::move(backend)),
      fd_(fd),
      page_bytes_(page_bytes),
      delay_us_(delay_us),
      options_(std::move(options)),
      batches_(options_.queue_depth),
      queues_(options_.completion_queues) {
  free_batches_.reserve(options_.queue_depth);
  for (size_t s = options_.queue_depth; s > 0; --s) {
    free_batches_.push_back(s - 1);
  }
}

IoScheduler::~IoScheduler() {
  // Reap every in-flight read before the backend dies: callers' pinned
  // buffers must never be written after this destructor returns.
  // Never-submitted pending requests are simply dropped.
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (inflight_reads_ > 0) {
      if (ReapLocked(lock, /*block=*/true) == 0 && inflight_reads_ > 0) {
        break;  // backend wedged; leak rather than spin forever
      }
    }
  }
  // Fold this (per-query) scheduler's lifetime totals into the global
  // mpsm_io_* families: one batch of atomic adds per query, no
  // registry traffic on the hot submit/reap paths.
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& pages_read = registry.counter(
      "mpsm_io_pages_read_total", "Spool pages whose reads completed");
  static obs::Counter& pages_written = registry.counter(
      "mpsm_io_pages_written_total", "Spool pages whose write-backs completed");
  static obs::Counter& read_batches = registry.counter(
      "mpsm_io_read_batches_total", "Vectored reads issued to the backend");
  static obs::Counter& write_batches = registry.counter(
      "mpsm_io_write_batches_total", "Vectored writes issued to the backend");
  static obs::Counter& coalesced = registry.counter(
      "mpsm_io_coalesced_pages_total",
      "Pages riding along in a vectored batch beyond the first");
  static obs::Counter& stall_ns = registry.counter(
      "mpsm_io_stall_ns_total", "Caller wall time blocked on I/O");
  static obs::Counter& retries = registry.counter(
      "mpsm_io_retries_total",
      "Pages re-submitted after transient (EINTR/EAGAIN-class) failures");
  static obs::Counter& flushes = registry.counter(
      "mpsm_io_flushes_total",
      "fdatasync durability barriers issued to the backend");
  pages_read.Add(pages_read_);
  pages_written.Add(pages_written_);
  read_batches.Add(io_batches_);
  write_batches.Add(write_batches_);
  coalesced.Add(coalesced_pages_ + coalesced_write_pages_);
  stall_ns.Add(io_stall_ns_.load(std::memory_order_relaxed));
  retries.Add(retries_);
  flushes.Add(flushes_);
}

Status IoScheduler::Submit(const PageFetchRequest* requests, size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  // All-or-nothing: validate every request before queueing any, so a
  // caller that sees an error owns all its buffers again (a partially
  // queued batch would keep reading into them after the error).
  for (size_t i = 0; i < count; ++i) {
    if (requests[i].queue >= queues_.size()) {
      return Status::InvalidArgument("completion queue out of range");
    }
  }
  for (size_t i = 0; i < count; ++i) {
    pending_.push_back(PendingPage{requests[i].page, requests[i].dest,
                                   requests[i].user_data,
                                   requests[i].queue});
  }
  return PushPendingLocked(lock);
}

Status IoScheduler::SubmitWrites(const PageWriteRequest* requests,
                                 size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < count; ++i) {
    if (requests[i].queue >= queues_.size()) {
      return Status::InvalidArgument("completion queue out of range");
    }
  }
  for (size_t i = 0; i < count; ++i) {
    // The const_cast is confined here: write batches build iovecs from
    // this pointer but the backend only ever reads through them.
    PendingPage page{requests[i].page, const_cast<char*>(requests[i].src),
                     requests[i].user_data, requests[i].queue};
    page.seq = ++write_enqueue_seq_;
    pending_writes_.push_back(std::move(page));
  }
  return PushPendingLocked(lock);
}

Status IoScheduler::SubmitFlush(uint64_t user_data, uint32_t queue) {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue >= queues_.size()) {
    return Status::InvalidArgument("completion queue out of range");
  }
  // The barrier is the newest write enqueued so far: the flush waits
  // for every write with seq <= barrier to complete before it is
  // issued, so its OK completion proves those writes durable.
  pending_flushes_.push_back(
      PendingFlush{write_enqueue_seq_, user_data, queue});
  return PushPendingLocked(lock);
}

bool IoScheduler::FlushBarrierClearLocked(uint64_t barrier) const {
  // Pending writes are seq-ascending (new writes append with higher
  // seqs; transient retries re-queue at the front with their original,
  // lower seqs), so the front holds the minimum.
  if (!pending_writes_.empty() && pending_writes_.front().seq <= barrier) {
    return false;
  }
  if (!inflight_write_seqs_.empty() &&
      *inflight_write_seqs_.begin() <= barrier) {
    return false;
  }
  return true;
}

bool IoScheduler::PushOneFlushLocked(std::unique_lock<std::mutex>& lock) {
  if (pending_flushes_.empty() || free_batches_.empty()) return false;
  if (!FlushBarrierClearLocked(pending_flushes_.front().barrier)) {
    return false;
  }
  const PendingFlush req = pending_flushes_.front();
  pending_flushes_.pop_front();

  const size_t slot = free_batches_.back();
  free_batches_.pop_back();
  Batch& batch = batches_[slot];
  batch.pages.clear();
  BatchPage page;
  page.user_data = req.user_data;
  page.queue = req.queue;
  page.attempts = req.attempts;
  batch.pages.push_back(page);
  batch.used = true;
  batch.is_write = false;
  batch.is_flush = true;
  batch.min_seq = 0;

  ++inflight_reads_;
  ++flushes_;
  obs::TraceInstant(obs::kCatIo, "io.flush", "inflight", inflight_reads_);

  lock.unlock();
  IoFlush flush;
  flush.fd = fd_;
  flush.user_data = slot;
  flush.delay_us = delay_us_;
  const Status submitted = backend_->SubmitFlush(flush);
  lock.lock();
  if (!submitted.ok()) {
    --inflight_reads_;
    RouteBatchLocked(batch, submitted);
    batch.used = false;
    free_batches_.push_back(slot);
  }
  return true;
}

bool IoScheduler::PushOneBatchLocked(std::unique_lock<std::mutex>& lock,
                                     std::deque<PendingPage>& queue,
                                     bool is_write) {
  if (queue.empty() || free_batches_.empty()) return false;
  // Retry backoff: a re-queued transient failure at the front holds
  // this queue until its deadline (FIFO keeps write seqs ordered; the
  // waits are tens of microseconds).
  if (queue.front().attempts > 0 &&
      queue.front().not_before > std::chrono::steady_clock::now()) {
    return false;
  }
  // Coalesce the run of adjacent page ids at the queue's front
  // (fetches arrive in page-index order and flushes are sorted by page
  // id, so physically consecutive pages are queue-adjacent).
  const size_t max_pages = std::min(options_.batch_pages, queue.size());
  size_t take = 1;
  while (take < max_pages &&
         queue[take].page == queue[take - 1].page + 1) {
    ++take;
  }

  const size_t slot = free_batches_.back();
  free_batches_.pop_back();
  Batch& batch = batches_[slot];
  batch.pages.clear();
  batch.used = true;
  batch.is_write = is_write;
  batch.is_flush = false;
  batch.min_seq = queue.front().seq;

  const uint64_t offset = queue.front().page * page_bytes_;
  std::array<::iovec, kMaxIovPerRead> iov{};
  for (size_t p = 0; p < take; ++p) {
    const PendingPage& req = queue.front();
    iov[p] = {req.buf, page_bytes_};
    batch.pages.push_back(BatchPage{req.user_data, req.queue, req.page,
                                    req.buf, req.seq, req.attempts});
    queue.pop_front();
  }
  if (is_write) inflight_write_seqs_.insert(batch.min_seq);

  ++inflight_reads_;
  if (is_write) {
    ++write_batches_;
    coalesced_write_pages_ += take - 1;
  } else {
    ++io_batches_;
    coalesced_pages_ += take - 1;
  }
  depth_samples_sum_ += inflight_reads_;
  peak_inflight_reads_ = std::max<uint64_t>(peak_inflight_reads_,
                                            inflight_reads_);
  obs::TraceInstant(obs::kCatIo,
                    is_write ? "io.write_batch" : "io.read_batch", "pages",
                    take, "inflight", inflight_reads_);

  lock.unlock();
  Status submitted;
  if (is_write) {
    IoWrite write;
    write.fd = fd_;
    write.offset = offset;
    write.iov_count = static_cast<uint32_t>(take);
    write.iov = iov;
    write.user_data = slot;
    write.delay_us = delay_us_;
    submitted = backend_->SubmitWrite(write);
  } else {
    IoRead read;
    read.fd = fd_;
    read.offset = offset;
    read.iov_count = static_cast<uint32_t>(take);
    read.iov = iov;
    read.user_data = slot;
    read.delay_us = delay_us_;
    submitted = backend_->SubmitRead(read);
  }
  lock.lock();
  if (!submitted.ok()) {
    // Surface the failure through the normal completion path (or the
    // transient-retry re-queue) so every waiter learns about it, then
    // keep pushing what we can.
    if (is_write) {
      inflight_write_seqs_.erase(inflight_write_seqs_.find(batch.min_seq));
    }
    --inflight_reads_;
    RouteBatchLocked(batch, submitted);
    batch.used = false;
    free_batches_.push_back(slot);
  }
  return true;
}

void IoScheduler::RouteBatchLocked(Batch& batch, const Status& status) {
  const bool retryable = !status.ok() &&
                         status.code() == StatusCode::kUnavailable &&
                         options_.max_retries > 0;
  // Re-queued pages go to the *front* (reverse order keeps batch
  // order), so retried writes keep their low seqs ahead of newer
  // writes and the flush-barrier front check stays a minimum check.
  for (size_t p = batch.pages.size(); p > 0; --p) {
    const BatchPage& page = batch.pages[p - 1];
    if (retryable && page.attempts < options_.max_retries) {
      const auto backoff = std::chrono::microseconds(
          static_cast<uint64_t>(options_.retry_backoff_us)
          << page.attempts);
      ++retries_;
      obs::TraceInstant(obs::kCatIo, "io.retry", "attempt",
                        page.attempts + 1);
      if (batch.is_flush) {
        pending_flushes_.push_front(
            PendingFlush{0, page.user_data, page.queue, page.attempts + 1});
        continue;
      }
      PendingPage retry{page.page, page.buf, page.user_data, page.queue};
      retry.seq = page.seq;
      retry.attempts = page.attempts + 1;
      retry.not_before = std::chrono::steady_clock::now() + backoff;
      (batch.is_write ? pending_writes_ : pending_).push_front(
          std::move(retry));
      continue;
    }
    queues_[page.queue].push_back(PageFetchCompletion{page.user_data, status});
  }
}

Status IoScheduler::PushPendingLocked(std::unique_lock<std::mutex>& lock) {
  // Reads before writes: fetches gate join progress now; write-backs
  // are background work whose only deadline is freeing frames. A read
  // backlog cannot starve writes forever — once it drains (or the
  // depth cap blocks it), pending writes get the leftover slots.
  while (PushOneBatchLocked(lock, pending_, /*is_write=*/false)) {
  }
  while (PushOneBatchLocked(lock, pending_writes_, /*is_write=*/true)) {
  }
  // Flushes last: they only become eligible once the writes they fence
  // have fully completed (FlushBarrierClearLocked).
  while (PushOneFlushLocked(lock)) {
  }
  return Status::OK();
}

size_t IoScheduler::ReapLocked(std::unique_lock<std::mutex>& lock,
                               bool block) {
  constexpr size_t kReapMax = 32;
  IoCompletion raw[kReapMax];
  lock.unlock();
  size_t n = backend_->PollCompletions(raw, kReapMax, /*block=*/false);
  if (n == 0 && block) {
    n = backend_->PollCompletions(raw, kReapMax, /*block=*/true);
  }
  lock.lock();
  for (size_t i = 0; i < n; ++i) {
    Batch& batch = batches_[raw[i].user_data];
    if (batch.is_write) {
      inflight_write_seqs_.erase(inflight_write_seqs_.find(batch.min_seq));
    }
    if (raw[i].status.ok() && !batch.is_flush) {
      (batch.is_write ? pages_written_ : pages_read_) +=
          batch.pages.size();
    }
    --inflight_reads_;
    RouteBatchLocked(batch, raw[i].status);
    batch.used = false;
    free_batches_.push_back(raw[i].user_data);
  }
  return n;
}

std::optional<std::chrono::steady_clock::time_point>
IoScheduler::NextRetryAtLocked() const {
  std::optional<std::chrono::steady_clock::time_point> at;
  for (const auto* queue : {&pending_, &pending_writes_}) {
    if (!queue->empty() && queue->front().attempts > 0) {
      const auto deadline = queue->front().not_before;
      if (!at || deadline < *at) at = deadline;
    }
  }
  return at;
}

Status IoScheduler::Pump(bool block) {
  std::unique_lock<std::mutex> lock(mu_);
  MPSM_RETURN_NOT_OK(PushPendingLocked(lock));
  size_t reaped = ReapLocked(lock, /*block=*/false);
  if (block && reaped == 0 && inflight_reads_ > 0) {
    reaped = ReapLocked(lock, /*block=*/true);
  }
  // Freed batch slots admit more pending work.
  if (reaped > 0) MPSM_RETURN_NOT_OK(PushPendingLocked(lock));
  // Nothing in flight but a retry waiting out its backoff: a blocking
  // pump sleeps to the deadline and re-submits, so callers looping on
  // Pump(block=true) cannot spin (or deadlock) across the backoff.
  if (block && reaped == 0 && inflight_reads_ == 0) {
    if (const auto retry_at = NextRetryAtLocked()) {
      lock.unlock();
      std::this_thread::sleep_until(*retry_at);
      lock.lock();
      MPSM_RETURN_NOT_OK(PushPendingLocked(lock));
    }
  }
  return Status::OK();
}

size_t IoScheduler::Drain(uint32_t queue, PageFetchCompletion* out,
                          size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& q = queues_[queue];
  size_t n = 0;
  while (n < max && !q.empty()) {
    out[n++] = std::move(q.front());
    q.pop_front();
  }
  return n;
}

bool IoScheduler::Busy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty() || !pending_writes_.empty() ||
         !pending_flushes_.empty() || inflight_reads_ > 0;
}

void IoScheduler::AddStallNs(uint64_t ns) {
  io_stall_ns_.fetch_add(ns, std::memory_order_relaxed);
  obs::TraceSpanEndingNow(obs::kCatIo, "io.stall", static_cast<int64_t>(ns));
  static obs::Histogram& stall_hist = obs::MetricsRegistry::Global().histogram(
      "mpsm_io_stall_ns", "Caller wall time blocked on I/O per stall");
  stall_hist.Record(ns);
}

IoSchedulerStats IoScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IoSchedulerStats stats;
  stats.pages_read = pages_read_;
  stats.io_batches = io_batches_;
  stats.coalesced_pages = coalesced_pages_;
  stats.pages_written = pages_written_;
  stats.write_batches = write_batches_;
  stats.coalesced_write_pages = coalesced_write_pages_;
  stats.io_stall_ns = io_stall_ns_.load(std::memory_order_relaxed);
  stats.retries = retries_;
  stats.flushes = flushes_;
  const uint64_t all_batches = io_batches_ + write_batches_;
  stats.mean_queue_depth =
      all_batches > 0 ? static_cast<double>(depth_samples_sum_) /
                            static_cast<double>(all_batches)
                      : 0.0;
  stats.peak_inflight_reads = peak_inflight_reads_;
  return stats;
}

}  // namespace mpsm::io

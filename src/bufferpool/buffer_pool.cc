#include "bufferpool/buffer_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "util/timer.h"

namespace mpsm::bufferpool {

Status BufferPoolOptions::Validate() const {
  if (frames == 0) {
    return Status::InvalidArgument("buffer pool frames must be >= 1");
  }
  if (client_queues == 0) {
    return Status::InvalidArgument("client_queues must be >= 1");
  }
  if (flush_batch_pages == 0) {
    return Status::InvalidArgument("flush_batch_pages must be >= 1");
  }
  return Status::OK();
}

Result<std::unique_ptr<BufferPool>> BufferPool::Create(
    disk::PageStore* store, io::IoScheduler* scheduler,
    BufferPoolOptions options, const numa::Topology* topology) {
  MPSM_RETURN_NOT_OK(options.Validate());
  if (store == nullptr || scheduler == nullptr) {
    return Status::InvalidArgument("store and scheduler must be non-null");
  }
  if (scheduler->options().completion_queues <= kPoolWriteQueue) {
    return Status::InvalidArgument(
        "pool scheduler queues out of range for this scheduler");
  }
  return std::unique_ptr<BufferPool>(
      new BufferPool(store, scheduler, std::move(options), topology));
}

BufferPool::BufferPool(disk::PageStore* store, io::IoScheduler* scheduler,
                       BufferPoolOptions options,
                       const numa::Topology* topology)
    : store_(store),
      scheduler_(scheduler),
      trace_(obs::CurrentTraceSink()),
      options_(std::move(options)),
      page_bytes_(store->page_bytes()),
      frames_(options_.frames),
      client_queues_(options_.client_queues) {
  // NUMA-interleaved frames: frame i comes from the arena homed on
  // node i % pool_nodes_, spreading the pool's bandwidth over every
  // memory controller (the same discipline the staging pool used
  // before the frames moved here).
  const uint32_t nodes =
      topology != nullptr ? std::max(1u, topology->num_nodes()) : 1;
  pool_nodes_ =
      static_cast<uint32_t>(std::min<size_t>(nodes, options_.frames));
  const size_t per_node =
      (options_.frames + pool_nodes_ - 1) / pool_nodes_;
  const size_t block_bytes =
      std::max<size_t>(per_node * page_bytes_, size_t{64} << 10);
  for (uint32_t n = 0; n < pool_nodes_; ++n) {
    arenas_.push_back(std::make_unique<numa::Arena>(n, block_bytes));
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    frames_[i].data =
        arenas_[i % pool_nodes_]->AllocateArray<char>(page_bytes_);
  }
  table_.reserve(options_.frames * 2);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

BufferPool::~BufferPool() { Close(); }

FrameId BufferPool::TryTakeFrameLocked() {
  bool want_flush = false;
  const size_t n = frames_.size();
  // Two clock laps: the first clears second-chance bits, the second
  // finds the victim those bits were protecting.
  for (size_t scanned = 0; scanned < 2 * n; ++scanned) {
    const auto fid = static_cast<FrameId>(clock_hand_);
    Frame& f = frames_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.state == Frame::State::kFree) return fid;
    // Pinned frames are never evicted; loading/flushing frames are
    // owned by their in-flight operation.
    if (f.state == Frame::State::kLoading || f.pins > 0 || f.flushing) {
      continue;
    }
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty) {
      // Dirty frames are flushed before reuse — nudge the flusher and
      // keep scanning for a clean victim.
      want_flush = true;
      continue;
    }
    table_.erase(f.page);
    ++evictions_;
    obs::TraceInstant(obs::kCatPool, "pool.evict", "page", f.page);
    f.state = Frame::State::kFree;
    f.pins = 0;
    f.referenced = false;
    f.waiters.clear();
    if (want_flush) flush_cv_.notify_one();
    return fid;
  }
  if (want_flush) flush_cv_.notify_one();
  return kInvalidFrame;
}

bool BufferPool::RoutePinLocked(const PagePinRequest& request,
                                std::vector<io::PageFetchRequest>& reads) {
  const auto it = table_.find(request.page);
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    if (f.state == Frame::State::kResident) {
      ++f.pins;
      f.referenced = true;
      ++hits_;
      obs::TraceInstant(obs::kCatPool, "pool.hit", "page", request.page);
      client_queues_[request.queue].push_back(
          PagePinCompletion{request.user_data, it->second, Status::OK()});
      return true;
    }
    // kLoading: join the in-flight read instead of issuing another.
    ++misses_;
    f.waiters.emplace_back(request.user_data, request.queue);
    return true;
  }
  const FrameId fid = TryTakeFrameLocked();
  if (fid == kInvalidFrame) return false;
  Frame& f = frames_[fid];
  f.page = request.page;
  f.state = Frame::State::kLoading;
  f.dirty = false;
  f.flushing = false;
  f.referenced = false;
  f.pins = 0;
  f.waiters.assign(1, {request.user_data, request.queue});
  table_[request.page] = fid;
  ++loading_frames_;
  ++misses_;
  obs::TraceInstant(obs::kCatPool, "pool.miss", "page", request.page);
  io::PageFetchRequest fetch;
  fetch.page = request.page;
  fetch.dest = f.data;
  fetch.user_data = fid;
  fetch.queue = kPoolLoadQueue;
  reads.push_back(fetch);
  return true;
}

void BufferPool::FailParkedLocked() {
  if (status_.ok()) return;
  while (!parked_pins_.empty()) {
    const PagePinRequest& request = parked_pins_.front();
    client_queues_[request.queue].push_back(
        PagePinCompletion{request.user_data, kInvalidFrame, status_});
    parked_pins_.pop_front();
  }
}

bool BufferPool::CollectParkedLocked(
    std::vector<io::PageFetchRequest>& reads) {
  if (closed_) return false;
  // A latched error means frames may never transition again (a failed
  // write-back leaves no retirement to wait for): fail parked pins now
  // instead of letting them wait on progress that cannot come.
  if (!status_.ok()) {
    const bool progressed = !parked_pins_.empty();
    FailParkedLocked();
    return progressed;
  }
  bool progressed = false;
  // FIFO: if the head can't get a frame, everyone behind it waits too.
  while (!parked_pins_.empty()) {
    if (!RoutePinLocked(parked_pins_.front(), reads)) break;
    parked_pins_.pop_front();
    progressed = true;
  }
  return progressed;
}

Status BufferPool::SubmitLoads(std::unique_lock<std::mutex>& lock,
                               std::vector<io::PageFetchRequest>& reads) {
  if (reads.empty()) return Status::OK();
  lock.unlock();
  const Status submitted = scheduler_->Submit(reads.data(), reads.size());
  lock.lock();
  if (!submitted.ok()) {
    // The scheduler rejects only malformed requests (a pool bug, not a
    // device error) — and all-or-nothing, so none of these reads
    // started: fail their waiters and free the frames.
    for (const io::PageFetchRequest& read : reads) {
      ProcessLoadLocked(static_cast<FrameId>(read.user_data), submitted);
    }
    if (status_.ok()) status_ = submitted;
  }
  return submitted;
}

Status BufferPool::SubmitPins(const PagePinRequest* requests,
                              size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("buffer pool closed");
  // All-or-nothing validation, matching the scheduler's contract.
  for (size_t i = 0; i < count; ++i) {
    if (requests[i].queue >= client_queues_.size()) {
      return Status::InvalidArgument("pin completion queue out of range");
    }
  }
  std::vector<io::PageFetchRequest> reads;
  bool parked = false;
  for (size_t i = 0; i < count; ++i) {
    // Once anything is parked, later pins queue behind it (FIFO).
    if (parked || !parked_pins_.empty()) {
      parked_pins_.push_back(requests[i]);
      ++deferred_pins_;
      parked = true;
      continue;
    }
    if (!RoutePinLocked(requests[i], reads)) {
      parked_pins_.push_back(requests[i]);
      ++deferred_pins_;
      parked = true;
    }
  }
  const Status submitted = SubmitLoads(lock, reads);
  lock.unlock();
  if (parked) flush_cv_.notify_one();  // dirty frames may block reuse
  progress_.notify_all();              // hits were delivered above
  return submitted;
}

bool BufferPool::DrainSchedulerQueues() {
  constexpr size_t kMaxDrain = 2 * io::kMaxIovPerRead;
  io::PageFetchCompletion done[kMaxDrain];
  bool progressed = false;
  for (;;) {
    const size_t n = scheduler_->Drain(kPoolLoadQueue, done, kMaxDrain);
    if (n == 0) break;
    progressed = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      ProcessLoadLocked(static_cast<FrameId>(done[i].user_data),
                        done[i].status);
    }
  }
  for (;;) {
    const size_t n = scheduler_->Drain(kPoolWriteQueue, done, kMaxDrain);
    if (n == 0) break;
    progressed = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      ProcessWriteLocked(static_cast<FrameId>(done[i].user_data),
                         done[i].status);
    }
  }
  if (progressed) {
    progress_.notify_all();
    flush_cv_.notify_one();
  }
  return progressed;
}

void BufferPool::ProcessLoadLocked(FrameId frame, const Status& status) {
  Frame& f = frames_[frame];
  --loading_frames_;
  if (status.ok()) {
    f.state = Frame::State::kResident;
    f.referenced = true;
    f.pins += static_cast<uint32_t>(f.waiters.size());
    for (const auto& [user_data, queue] : f.waiters) {
      client_queues_[queue].push_back(
          PagePinCompletion{user_data, frame, Status::OK()});
    }
  } else {
    if (status_.ok()) status_ = status;
    for (const auto& [user_data, queue] : f.waiters) {
      client_queues_[queue].push_back(
          PagePinCompletion{user_data, kInvalidFrame, status});
    }
    table_.erase(f.page);
    f.state = Frame::State::kFree;
    f.pins = 0;
    FailParkedLocked();
  }
  f.waiters.clear();
}

void BufferPool::ProcessWriteLocked(FrameId frame, const Status& status) {
  Frame& f = frames_[frame];
  f.flushing = false;
  --writes_inflight_;
  --dirty_frames_;
  if (status.ok()) {
    ++writebacks_;
  } else {
    if (status_.ok()) status_ = status;
    // A parked pin waiting for this frame to retire would otherwise
    // wait forever: deliver the latched failure now.
    FailParkedLocked();
  }
  // On failure the frame is marked clean anyway: the error is latched
  // (the query fails through status()/FlushAll), and retrying a dead
  // device forever would wedge Close. No frame is lost either way.
  f.dirty = false;
}

bool BufferPool::HasFlushCandidateLocked() const {
  for (const Frame& f : frames_) {
    if (f.dirty && !f.flushing && f.pins == 0 &&
        f.state == Frame::State::kResident) {
      return true;
    }
  }
  return false;
}

void BufferPool::FlusherLoop() {
  // Attach to the creating query's sink so background write-back shows
  // up on its own named track in that query's trace.
  obs::ScopedTraceThread trace_scope(trace_, "flusher", 0);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stop_flusher_) return;
    // Gather dirty unpinned frames, sorted by page id so the scheduler
    // coalesces adjacent spool pages into one vectored pwritev.
    std::vector<FrameId> batch;
    for (size_t i = 0;
         i < frames_.size() && batch.size() < options_.flush_batch_pages;
         ++i) {
      const Frame& f = frames_[i];
      if (f.dirty && !f.flushing && f.pins == 0 &&
          f.state == Frame::State::kResident) {
        batch.push_back(static_cast<FrameId>(i));
      }
    }
    if (!batch.empty()) {
      std::sort(batch.begin(), batch.end(), [&](FrameId a, FrameId b) {
        return frames_[a].page < frames_[b].page;
      });
      std::vector<io::PageWriteRequest> writes(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        Frame& f = frames_[batch[i]];
        f.flushing = true;
        writes[i].page = f.page;
        writes[i].src = f.data;
        writes[i].user_data = batch[i];
        writes[i].queue = kPoolWriteQueue;
      }
      writes_inflight_ += batch.size();
      lock.unlock();
      obs::TraceInstant(obs::kCatPool, "pool.writeback", "pages",
                        batch.size());
      const Status submitted =
          scheduler_->SubmitWrites(writes.data(), writes.size());
      if (!submitted.ok()) {
        // All-or-nothing reject (a pool bug): retire the batch as
        // failed so counters and Close stay consistent.
        std::lock_guard<std::mutex> relock(mu_);
        for (const FrameId fid : batch) {
          ProcessWriteLocked(fid, submitted);
        }
      }
      DrainSchedulerQueues();  // reap whatever already finished
      lock.lock();
      continue;
    }
    if (writes_inflight_ > 0) {
      // Only in-flight write-backs remain: park in the scheduler so
      // the flusher retires them even if no worker ever pumps.
      lock.unlock();
      scheduler_->Pump(/*block=*/true);
      DrainSchedulerQueues();
      lock.lock();
      continue;
    }
    flush_cv_.wait(lock, [&] {
      return stop_flusher_ || HasFlushCandidateLocked();
    });
  }
}

Status BufferPool::Pump(bool block) {
  MPSM_RETURN_NOT_OK(scheduler_->Pump(/*block=*/false));
  bool progressed = DrainSchedulerQueues();
  {
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<io::PageFetchRequest> reads;
    if (CollectParkedLocked(reads)) progressed = true;
    SubmitLoads(lock, reads);  // errors surface via pin completions
  }
  if (!block || progressed) return Status::OK();
  if (scheduler_->Busy()) {
    MPSM_RETURN_NOT_OK(scheduler_->Pump(/*block=*/true));
    DrainSchedulerQueues();
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<io::PageFetchRequest> reads;
    CollectParkedLocked(reads);
    SubmitLoads(lock, reads);
    return Status::OK();
  }
  // Device idle: wait briefly for another thread to free a frame or
  // retire a write-back. Bounded, so a wakeup racing this wait only
  // costs a timeout, never a hang — callers re-check and Pump again.
  std::unique_lock<std::mutex> lock(mu_);
  progress_.wait_for(lock, std::chrono::microseconds(200));
  return Status::OK();
}

size_t BufferPool::DrainPins(uint32_t queue, PagePinCompletion* out,
                             size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& q = client_queues_[queue];
  size_t n = 0;
  while (n < max && !q.empty()) {
    out[n++] = std::move(q.front());
    q.pop_front();
  }
  return n;
}

const char* BufferPool::Data(FrameId frame) const {
  return frames_[frame].data;
}

void BufferPool::Unpin(FrameId frame) {
  bool freed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Frame& f = frames_[frame];
    if (f.pins > 0 && --f.pins == 0) freed = true;
  }
  if (freed) {
    progress_.notify_all();
    flush_cv_.notify_one();  // a dirty frame may now be flushable
  }
}

Result<disk::PageId> BufferPool::AppendPage(const Tuple* tuples,
                                            size_t count,
                                            uint64_t* stall_ns) {
  if (count > store_->tuples_per_page()) {
    return Status::InvalidArgument("page overflow");
  }
  uint64_t stalled = 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("buffer pool closed");
  FrameId fid = TryTakeFrameLocked();
  while (fid == kInvalidFrame) {
    // Every frame is pinned, loading, or awaiting write-back. This
    // wait is the spool-write stall the sync/async A/B measures.
    flush_cv_.notify_one();
    lock.unlock();
    WallTimer wait;
    MPSM_RETURN_NOT_OK(Pump(/*block=*/true));
    stalled += static_cast<uint64_t>(wait.ElapsedSeconds() * 1e9);
    lock.lock();
    fid = TryTakeFrameLocked();
  }
  Frame& f = frames_[fid];
  const disk::PageId id = store_->AllocatePage();
  f.page = id;
  f.state = Frame::State::kResident;
  f.dirty = true;
  f.flushing = false;
  f.referenced = true;
  // Exclusive while encoding: no flush or eviction may touch the
  // frame. No reader can race the encode — the page id only becomes
  // known to other threads when this call returns it.
  f.pins = 1;
  table_[id] = fid;
  ++dirty_frames_;
  ++append_pages_;
  append_stall_ns_ += stalled;
  lock.unlock();
  store_->EncodePage(tuples, count, f.data);
  {
    std::lock_guard<std::mutex> relock(mu_);
    f.pins = 0;
  }
  flush_cv_.notify_one();
  if (stalled > 0) {
    obs::TraceSpanEndingNow(obs::kCatPool, "pool.append_stall",
                            static_cast<int64_t>(stalled));
  }
  if (stall_ns != nullptr) *stall_ns += stalled;
  return id;
}

Status BufferPool::FlushAll() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (dirty_frames_ == 0 && writes_inflight_ == 0) return status_;
    }
    flush_cv_.notify_one();
    MPSM_RETURN_NOT_OK(Pump(/*block=*/true));
  }
}

Status BufferPool::FlushUpTo(disk::PageId limit) {
  // Passive wait: the flusher thread both submits and reaps write-backs
  // on its own (it parks in the scheduler while writes are in flight),
  // so this caller only nudges it and sleeps on progress_ — it never
  // pumps the scheduler itself, keeping the recovery committer off the
  // completion path the workers and prefetcher contend on.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!status_.ok()) return status_;
    bool outstanding = false;
    for (const Frame& f : frames_) {
      // dirty covers mid-flush frames too (the flag clears when the
      // write-back *completes*, not when it is submitted).
      if (f.dirty && f.state == Frame::State::kResident &&
          f.page <= limit) {
        outstanding = true;
        break;
      }
    }
    if (!outstanding) return status_;
    flush_cv_.notify_one();
    // Bounded so a notify racing this wait costs a timeout, not a hang
    // (the flusher cannot flush a dirty frame while a reader pins it;
    // re-checking picks up the unpin).
    progress_.wait_for(lock, std::chrono::microseconds(200));
  }
}

Status BufferPool::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return status_;
    closed_ = true;  // rejects new appends/pins; parked pins fail below
  }
  FlushAll();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Reap outstanding loads: no backend write may land in a frame after
  // the arenas die with this pool.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (loading_frames_ == 0 && writes_inflight_ == 0) break;
    }
    Pump(/*block=*/true);
  }
  std::lock_guard<std::mutex> lock(mu_);
  while (!parked_pins_.empty()) {
    const PagePinRequest& request = parked_pins_.front();
    client_queues_[request.queue].push_back(PagePinCompletion{
        request.user_data, kInvalidFrame,
        Status::Internal("buffer pool closed")});
    parked_pins_.pop_front();
  }
  // Fold this pool's lifetime totals into the global mpsm_pool_*
  // families (reached once: a second Close returns early above).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& hits = registry.counter(
      "mpsm_pool_hits_total", "Pins served from a resident frame");
  static obs::Counter& misses = registry.counter(
      "mpsm_pool_misses_total", "Pins that required or joined a device read");
  static obs::Counter& evictions = registry.counter(
      "mpsm_pool_evictions_total", "Clean frames reclaimed by the clock hand");
  static obs::Counter& writebacks = registry.counter(
      "mpsm_pool_writebacks_total", "Dirty frames written back to the spool");
  static obs::Counter& appends = registry.counter(
      "mpsm_pool_append_pages_total", "Pages appended via the write-back path");
  static obs::Counter& deferred = registry.counter(
      "mpsm_pool_deferred_pins_total",
      "Pin requests parked because every frame was busy");
  static obs::Counter& append_stall = registry.counter(
      "mpsm_pool_append_stall_ns_total",
      "Appender wall time waiting for a free frame");
  hits.Add(hits_);
  misses.Add(misses_);
  evictions.Add(evictions_);
  writebacks.Add(writebacks_);
  appends.Add(append_pages_);
  deferred.Add(deferred_pins_);
  append_stall.Add(append_stall_ns_);
  return status_;
}

Status BufferPool::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void BufferPool::AddStallNs(uint64_t ns) { scheduler_->AddStallNs(ns); }

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.writebacks = writebacks_;
  stats.append_pages = append_pages_;
  stats.append_stall_ns = append_stall_ns_;
  stats.deferred_pins = deferred_pins_;
  stats.frames = options_.frames;
  stats.pool_nodes = pool_nodes_;
  return stats;
}

}  // namespace mpsm::bufferpool

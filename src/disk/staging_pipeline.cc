#include "disk/staging_pipeline.h"

#include <algorithm>

#include "util/timer.h"

namespace mpsm::disk {

StagingPipeline::StagingPipeline(const PageStore& store,
                                 const PageIndex& index,
                                 size_t capacity_pages,
                                 uint32_t num_consumers,
                                 bufferpool::BufferPool* pool)
    : store_(store),
      index_(index),
      capacity_(capacity_pages == 0 ? 1 : capacity_pages),
      num_consumers_(num_consumers),
      pool_(pool),
      slots_(capacity_) {}

StagingPipeline::~StagingPipeline() { Stop(); }

void StagingPipeline::Start() {
  prefetch_thread_ = std::thread([this] { PrefetchLoop(); });
}

void StagingPipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  frame_freed_.notify_all();
  frame_loaded_.notify_all();
  // The prefetch thread is the only submitter, and its loop exits only
  // once every submitted pin has been reaped, so joining it guarantees
  // no pool frame stays pinned on our behalf after this returns.
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
}

bool StagingPipeline::ClaimableLocked() const {
  if (stop_ || next_claim_ >= index_.size()) return false;
  // A ring slot is reusable once it holds no frame, no in-flight
  // fetch, and no pending releases of an older position.
  return slots_[next_claim_ % capacity_].state == SlotState::kFree;
}

bool StagingPipeline::ClaimAndSubmitLocked(
    std::unique_lock<std::mutex>& lock) {
  bufferpool::PagePinRequest requests[io::kMaxIovPerRead];
  const size_t batch_max = std::min(
      pool_->scheduler()->options().batch_pages, io::kMaxIovPerRead);
  size_t n = 0;
  while (n < batch_max && ClaimableLocked()) {
    const size_t pos = next_claim_++;
    Slot& slot = slots_[pos % capacity_];
    slot.state = SlotState::kInFlight;
    slot.pos = pos;
    requests[n].page = index_[pos].page;
    requests[n].user_data = pos;
    requests[n].queue = 0;
    ++n;
  }
  if (n == 0) return false;
  outstanding_ += n;
  lock.unlock();
  const Status submitted = pool_->SubmitPins(requests, n);
  lock.lock();
  if (!submitted.ok()) {
    // SubmitPins rejects only malformed requests (a pipeline bug, not
    // a device error); fail the query and let the janitor loop drain.
    if (status_.ok()) status_ = submitted;
    stop_ = true;
    frame_loaded_.notify_all();
  }
  return true;
}

bool StagingPipeline::DrainAndPublishLocked(
    std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  pool_->Pump(/*block=*/false);
  constexpr size_t kMaxDrain = 2 * io::kMaxIovPerRead;
  bufferpool::PagePinCompletion completions[kMaxDrain];
  const size_t n = pool_->DrainPins(/*queue=*/0, completions, kMaxDrain);
  // Decode outside the lock: an in-flight slot is owned by the
  // prefetch thread until it is published. The pool frame is borrowed
  // only for the copy-out and unpinned immediately (second chance
  // keeps it cached for other readers of the same page).
  std::vector<Status> decode_status(n);
  for (size_t i = 0; i < n; ++i) {
    if (!completions[i].status.ok()) {
      decode_status[i] = completions[i].status;
      continue;
    }
    const size_t pos = completions[i].user_data;
    Slot& slot = slots_[pos % capacity_];
    slot.frame.tuples.resize(store_.tuples_per_page());
    auto count = store_.DecodePage(pool_->Data(completions[i].frame),
                                   slot.frame.tuples.data());
    pool_->Unpin(completions[i].frame);
    if (!count.ok()) {
      decode_status[i] = count.status();
      continue;
    }
    slot.frame.tuples.resize(*count);
    slot.frame.entry = index_[pos];
  }
  lock.lock();
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = completions[i].user_data;
    Slot& slot = slots_[pos % capacity_];
    --outstanding_;
    ++completed_positions_;
    if (!decode_status[i].ok()) {
      if (status_.ok()) status_ = decode_status[i];
      stop_ = true;
      slot.state = SlotState::kFree;
      slot.pos = SIZE_MAX;
    } else if (stop_) {
      // Error shutdown elsewhere: drop the frame, consumers drain.
      slot.state = SlotState::kFree;
      slot.pos = SIZE_MAX;
    } else {
      slot.state = SlotState::kResident;
      slot.releases_remaining = num_consumers_;
      ++resident_;
      peak_resident_ = std::max(peak_resident_, resident_);
    }
  }
  if (n > 0) frame_loaded_.notify_all();
  return n > 0;
}

void StagingPipeline::PrefetchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Exit only once every claimed fetch has completed: this thread is
    // the janitor that guarantees Stop()'s no-pins-left contract.
    if (completed_positions_ >= index_.size()) return;
    if (stop_ && outstanding_ == 0) return;
    bool progressed = false;
    if (!stop_) progressed |= ClaimAndSubmitLocked(lock);
    progressed |= DrainAndPublishLocked(lock);
    if (progressed) continue;
    if (outstanding_ > 0) {
      // Pins in flight: park in the pool until one lands.
      lock.unlock();
      pool_->Pump(/*block=*/true);
      lock.lock();
    } else {
      // Ring full and nothing in flight: wait for the slowest consumer
      // to free a slot.
      frame_freed_.wait(lock, [&] {
        return stop_ || ClaimableLocked() ||
               completed_positions_ >= index_.size();
      });
    }
  }
}

const PageFrame* StagingPipeline::Acquire(size_t pos, uint64_t* stall_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[pos % capacity_];
  const auto resident = [&] {
    return slot.pos == pos && slot.state == SlotState::kResident;
  };
  if (!resident() && !stop_) {
    WallTimer stall;
    frame_loaded_.wait(lock, [&] { return resident() || stop_; });
    const auto stalled_ns =
        static_cast<uint64_t>(stall.ElapsedSeconds() * 1e9);
    if (stall_ns != nullptr) *stall_ns += stalled_ns;
    pool_->AddStallNs(stalled_ns);
  }
  return resident() ? &slot.frame : nullptr;
}

void StagingPipeline::Release(size_t pos) {
  bool freed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[pos % capacity_];
    if (slot.pos != pos || slot.state != SlotState::kResident ||
        slot.releases_remaining == 0) {
      return;
    }
    if (--slot.releases_remaining == 0) {
      slot.state = SlotState::kFree;
      slot.pos = SIZE_MAX;
      --resident_;
      freed = true;
    }
  }
  if (freed) frame_freed_.notify_all();
}

Status StagingPipeline::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace mpsm::disk

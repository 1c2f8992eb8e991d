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

void StagingPipeline::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  // With stop_ set, DrainLocked unpins every pin that lands.
  while (outstanding_ > 0) {
    if (DrainLocked() > 0) continue;
    lock.unlock();
    pool_->Pump(/*block=*/true);
    lock.lock();
  }
  for (Slot& slot : slots_) {
    if (slot.state != SlotState::kResident) continue;
    pool_->Unpin(slot.pinned);
    slot = Slot{};
    --resident_;
  }
}

void StagingPipeline::FailLocked(const Status& status) {
  if (status_.ok()) status_ = status;
  stop_ = true;
}

bool StagingPipeline::ClaimableLocked() const {
  if (stop_ || next_claim_ >= index_.size()) return false;
  // A ring slot is reusable once it holds no frame, no in-flight pin,
  // and no pending releases of an older position.
  return slots_[next_claim_ % capacity_].state == SlotState::kFree;
}

void StagingPipeline::ClaimAndSubmitLocked(
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
  if (n == 0) return;
  outstanding_ += n;
  lock.unlock();
  const Status submitted = pool_->SubmitPins(requests, n);
  lock.lock();
  // SubmitPins rejects only malformed requests (a pipeline bug, not a
  // device error); the pins it routed still complete and are reaped.
  if (!submitted.ok()) FailLocked(submitted);
}

size_t StagingPipeline::DrainLocked() {
  constexpr size_t kMaxDrain = 2 * io::kMaxIovPerRead;
  bufferpool::PagePinCompletion completions[kMaxDrain];
  const size_t n = pool_->DrainPins(/*queue=*/0, completions, kMaxDrain);
  for (size_t i = 0; i < n; ++i) {
    const bufferpool::PagePinCompletion& done = completions[i];
    const size_t pos = done.user_data;
    Slot& slot = slots_[pos % capacity_];
    --outstanding_;
    Status status = done.status;
    if (status.ok()) {
      auto tuples = store_.ViewPage(pool_->Data(done.frame));
      if (tuples.ok()) {
        slot.frame.tuples = *tuples;
      } else {
        status = tuples.status();
      }
    }
    if (!status.ok()) FailLocked(status);
    if (stop_) {
      if (done.frame != bufferpool::kInvalidFrame) pool_->Unpin(done.frame);
      slot = Slot{};
      continue;
    }
    slot.frame.entry = index_[pos];
    slot.pinned = done.frame;
    slot.state = SlotState::kResident;
    slot.releases_remaining = num_consumers_;
    ++resident_;
    peak_resident_ = std::max(peak_resident_, resident_);
  }
  return n;
}

const PageFrame* StagingPipeline::Acquire(size_t pos, uint64_t* stall_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[pos % capacity_];
  const auto resident = [&] {
    return slot.pos == pos && slot.state == SlotState::kResident;
  };
  // Keep the ring running ahead of the slowest consumer.
  ClaimAndSubmitLocked(lock);
  if (!resident()) DrainLocked();
  if (!resident() && !stop_) {
    WallTimer stall;
    do {
      // Park in the pool until a pin lands or a frame frees; then claim
      // what the wait freed and publish what arrived.
      lock.unlock();
      pool_->Pump(/*block=*/true);
      lock.lock();
      ClaimAndSubmitLocked(lock);
      DrainLocked();
    } while (!resident() && !stop_);
    const auto stalled_ns =
        static_cast<uint64_t>(stall.ElapsedSeconds() * 1e9);
    if (stall_ns != nullptr) *stall_ns += stalled_ns;
    pool_->AddStallNs(stalled_ns);
  }
  return resident() ? &slot.frame : nullptr;
}

void StagingPipeline::Release(size_t pos) {
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[pos % capacity_];
  if (slot.pos != pos || slot.state != SlotState::kResident ||
      slot.releases_remaining == 0) {
    return;
  }
  if (--slot.releases_remaining > 0) return;
  pool_->Unpin(slot.pinned);
  slot = Slot{};
  --resident_;
  // Pin the position that reuses the slot: a consumer already waiting
  // for it wakes on that pin's completion.
  ClaimAndSubmitLocked(lock);
}

Status StagingPipeline::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace mpsm::disk

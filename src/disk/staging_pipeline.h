// The D-MPSM staging pipeline: the bounded ring of shared S pages (the
// green/white/yellow page lifecycle of Figure 4) over the buffer pool
// of src/bufferpool/ (docs/storage.md).
//
// Workers consume the public input's pages in page-index order. A ring
// slot holds its page pinned in a pool frame, and the workers merge its
// tuples there. The workers also drive the ring: Acquire claims a batch
// of upcoming index positions whose slots are free and pins their pages
// (a cached page completes at once; a miss becomes a coalesced vectored
// read through the IoScheduler), and a worker whose page has not
// arrived waits by pumping the pool. A slot is released once every
// worker has processed it — i.e. once the *slowest* worker has moved
// past it; that last Release unpins the frame and pins the position
// that reuses the slot. Ring capacity bounds the frames the ring pins.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "disk/page_index.h"
#include "disk/page_store.h"
#include "util/status.h"

namespace mpsm::disk {

/// A staged page: its tuples in place in the pinned pool frame, plus
/// the index entry it belongs to.
struct PageFrame {
  std::span<const Tuple> tuples;
  PageIndexEntry entry;
};

/// Shared pipeline over one finalized page index.
class StagingPipeline {
 public:
  /// `capacity_pages` bounds the pool frames the ring pins (>= 1);
  /// `num_consumers` workers will each acquire every index position
  /// exactly once. Pages are pinned through `pool` (borrowed; must
  /// outlive the pipeline), whose client queue 0 this pipeline owns.
  /// Nothing is pinned before the first Acquire.
  StagingPipeline(const PageStore& store, const PageIndex& index,
                  size_t capacity_pages, uint32_t num_consumers,
                  bufferpool::BufferPool* pool);
  ~StagingPipeline();

  StagingPipeline(const StagingPipeline&) = delete;
  StagingPipeline& operator=(const StagingPipeline&) = delete;

  /// Blocks until index position `pos` is resident; returns its frame,
  /// valid until this consumer calls Release(pos). Returns nullptr when
  /// the pipeline stopped on an I/O error (check status()). `stall_ns`
  /// (optional) accumulates the wall nanoseconds this call blocked.
  const PageFrame* Acquire(size_t pos, uint64_t* stall_ns = nullptr);

  /// Signals that this consumer is done with position `pos`. After
  /// num_consumers releases the frame is unpinned ("green" in
  /// Figure 4). No-op for positions that never became resident (error
  /// shutdown).
  void Release(size_t pos);

  /// Reaps every pin still in flight and unpins every staged frame, so
  /// no pool frame stays pinned after this returns. Call once no
  /// consumer is inside Acquire or holds a frame; the destructor calls
  /// it too.
  void Stop();

  /// Highest number of simultaneously resident frames observed.
  size_t peak_resident_pages() const { return peak_resident_; }

  /// First I/O error encountered, if any.
  Status status() const;

 private:
  enum class SlotState : uint8_t { kFree, kInFlight, kResident };
  struct Slot {
    PageFrame frame;
    bufferpool::FrameId pinned = bufferpool::kInvalidFrame;
    SlotState state = SlotState::kFree;
    size_t pos = SIZE_MAX;
    uint32_t releases_remaining = 0;
  };

  /// True when the next unclaimed index position's ring slot is free;
  /// caller must hold mu_.
  bool ClaimableLocked() const;
  /// Claims up to the scheduler's batch size of consecutive claimable
  /// positions and pins them (lock dropped around the submit).
  void ClaimAndSubmitLocked(std::unique_lock<std::mutex>& lock);
  /// Drains the ring's pin queue: checks each arrived page's header in
  /// place and publishes its slot, or unpins it on error or after
  /// Stop. Returns the completions processed.
  size_t DrainLocked();
  /// Latches the first error and stops the ring.
  void FailLocked(const Status& status);

  const PageStore& store_;
  const PageIndex& index_;
  const size_t capacity_;
  const uint32_t num_consumers_;
  bufferpool::BufferPool* const pool_;

  mutable std::mutex mu_;
  // Ring keyed by index position: slot pos % capacity.
  std::vector<Slot> slots_;
  size_t next_claim_ = 0;   // next index position to claim for loading
  size_t outstanding_ = 0;  // pins submitted, not yet drained
  size_t resident_ = 0;
  size_t peak_resident_ = 0;
  bool stop_ = false;
  Status status_;
};

}  // namespace mpsm::disk

// The D-MPSM staging pipeline: bounded frame ring + async prefetch
// (the green/white/yellow page lifecycle of Figure 4, fed by the
// buffer pool of src/bufferpool/ — docs/storage.md).
//
// Workers consume the public input's pages in page-index order. Page
// residency flows through a bufferpool::BufferPool: a dedicated
// prefetch thread claims a *batch* of upcoming index positions whose
// ring slots are free and pins their pages (a cached page completes
// immediately; a miss becomes a coalesced vectored read through the
// IoScheduler). It alone drains the pin completions, decodes each
// arrived page into its ring slot and unpins it at once, so the pool
// frame is only borrowed for the copy-out. A slot is released once
// every worker has processed it — i.e. once the *slowest* worker has
// moved past it. Ring capacity bounds resident decoded RAM.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "disk/page_index.h"
#include "disk/page_store.h"
#include "util/status.h"

namespace mpsm::disk {

/// A resident page: tuples plus the index entry it belongs to.
struct PageFrame {
  std::vector<Tuple> tuples;
  PageIndexEntry entry;
};

/// Shared pipeline over one finalized page index.
class StagingPipeline {
 public:
  /// `capacity_pages` bounds resident decoded frames (>= 1);
  /// `num_consumers` workers will each acquire every index position
  /// exactly once. Pages are pinned through `pool` (borrowed; must
  /// outlive the pipeline), whose client queue 0 this pipeline owns.
  StagingPipeline(const PageStore& store, const PageIndex& index,
                  size_t capacity_pages, uint32_t num_consumers,
                  bufferpool::BufferPool* pool);
  ~StagingPipeline();

  StagingPipeline(const StagingPipeline&) = delete;
  StagingPipeline& operator=(const StagingPipeline&) = delete;

  /// Starts the prefetch thread.
  void Start();

  /// Blocks until index position `pos` is resident; returns its frame,
  /// valid until this consumer calls Release(pos). Returns nullptr when
  /// the pipeline stopped on an I/O error (check status()). `stall_ns`
  /// (optional) accumulates the wall nanoseconds this call blocked.
  const PageFrame* Acquire(size_t pos, uint64_t* stall_ns = nullptr);

  /// Signals that this consumer is done with position `pos`. After
  /// num_consumers releases the frame is freed ("green" in Figure 4).
  /// No-op for positions that never became resident (error shutdown).
  void Release(size_t pos);

  /// Stops the prefetcher (joins the thread) once every pin this
  /// pipeline has in flight is reaped, so no pool frame stays pinned
  /// after destruction. Called automatically by the destructor.
  void Stop();

  /// Highest number of simultaneously resident frames observed.
  size_t peak_resident_pages() const { return peak_resident_; }

  /// First I/O error encountered, if any.
  Status status() const;

 private:
  enum class SlotState : uint8_t { kFree, kInFlight, kResident };
  struct Slot {
    PageFrame frame;  // tuple storage reused across positions
    SlotState state = SlotState::kFree;
    size_t pos = SIZE_MAX;
    uint32_t releases_remaining = 0;
  };

  void PrefetchLoop();
  /// True when the next unclaimed index position's ring slot is free;
  /// caller must hold mu_.
  bool ClaimableLocked() const;
  /// Claims up to the scheduler's batch size of consecutive claimable
  /// positions and pins them (lock dropped around the submit).
  /// Returns true when at least one pin was submitted.
  bool ClaimAndSubmitLocked(std::unique_lock<std::mutex>& lock);
  /// Pumps the pool and drains the pin queue, decoding, unpinning and
  /// publishing arrived frames. Returns true when at least one
  /// completion was processed.
  bool DrainAndPublishLocked(std::unique_lock<std::mutex>& lock);

  const PageStore& store_;
  const PageIndex& index_;
  const size_t capacity_;
  const uint32_t num_consumers_;
  bufferpool::BufferPool* const pool_;

  mutable std::mutex mu_;
  std::condition_variable frame_loaded_;
  std::condition_variable frame_freed_;
  // Ring keyed by index position: slot pos % capacity.
  std::vector<Slot> slots_;
  size_t next_claim_ = 0;  // next index position to claim for loading
  size_t completed_positions_ = 0;  // published or discarded
  size_t outstanding_ = 0;          // submitted, not yet completed
  size_t resident_ = 0;
  size_t peak_resident_ = 0;
  bool stop_ = false;
  Status status_;
  std::thread prefetch_thread_;
};

}  // namespace mpsm::disk

// BufferPool: a pinned-frame page cache between D-MPSM's disk clients
// and the async I/O subsystem (docs/storage.md).
//
// The pool owns a fixed budget of page-sized frames (NUMA-interleaved,
// arena-backed) and a page table mapping spool page ids to resident
// frames. Clients pin pages asynchronously — SubmitPins mirrors the
// IoScheduler's submit/drain shape, so a hit completes immediately
// from RAM while a miss flows through the coalescing scheduler — and
// release them with Unpin once done with the bytes. Clock
// (second-chance) eviction reclaims clean, unpinned, unreferenced
// frames; pinned frames are never evicted, and dirty frames are
// written back before reuse.
//
// The write path makes run spooling non-blocking: AppendPage encodes
// the page into a frame and returns, while a background flusher thread
// gathers dirty unpinned frames (sorted by page id so the scheduler
// coalesces neighbors into vectored pwritev batches) and retires them
// through SubmitWrites. A worker only stalls when every frame is
// pinned, loading, or awaiting write-back — that wait is the
// spool-write stall the DMpsmReport A/B measures.
//
// There is no pool thread for reads and no completion callback: like
// the scheduler underneath, progress happens when some caller Pumps.
// Every blocking wait in the pool pumps the scheduler, so any stalled
// thread drives everyone's I/O forward (docs/io.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "disk/page_store.h"
#include "io/io_scheduler.h"
#include "numa/arena.h"
#include "numa/topology.h"
#include "obs/trace.h"
#include "util/status.h"

namespace mpsm::bufferpool {

/// Index into the pool's frame table; stable while the caller holds a
/// pin on the frame.
using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = 0xffffffffu;

/// Scheduler completion queues the pool owns for its own traffic:
/// frame loads and write-backs. The scheduler needs at least two
/// queues, and no other client may drain these.
inline constexpr uint32_t kPoolLoadQueue = 0;
inline constexpr uint32_t kPoolWriteQueue = 1;

/// Pool tuning; Validate() is called by Create and by the front doors
/// that derive these knobs (DMpsmOptions::pool_budget_bytes).
struct BufferPoolOptions {
  /// Frame budget in pages (>= 1). frames * page_bytes is the pool's
  /// RAM footprint.
  size_t frames = 64;
  /// Client pin-completion queues (>= 1); pin requests name theirs.
  uint32_t client_queues = 1;
  /// Most dirty frames gathered into one flush submission (>= 1).
  size_t flush_batch_pages = 8;

  Status Validate() const;
};

/// One page pin: make `page` resident and deliver a pinned frame to
/// client queue `queue`, carrying `user_data`.
struct PagePinRequest {
  disk::PageId page = 0;
  uint64_t user_data = 0;
  uint32_t queue = 0;
};

/// One granted (or failed) pin. On success `frame` is pinned for the
/// caller: read its bytes via Data(frame), then Unpin(frame). On error
/// `frame` is kInvalidFrame and there is nothing to unpin.
struct PagePinCompletion {
  uint64_t user_data = 0;
  FrameId frame = kInvalidFrame;
  Status status;
};

/// Cumulative pool counters (DMpsmReport observability).
struct BufferPoolStats {
  /// Pins served from a resident frame (no device read).
  uint64_t hits = 0;
  /// Pins that required (or joined) a device read.
  uint64_t misses = 0;
  /// Clean frames reclaimed by the clock hand.
  uint64_t evictions = 0;
  /// Dirty frames successfully written back to the spool.
  uint64_t writebacks = 0;
  /// Pages appended through the write-back path.
  uint64_t append_pages = 0;
  /// Wall nanoseconds appenders spent waiting for a free frame.
  uint64_t append_stall_ns = 0;
  /// Pin requests that had to park because every frame was busy.
  uint64_t deferred_pins = 0;
  /// Configured frame budget.
  size_t frames = 0;
  /// Distinct NUMA nodes the frames are homed on.
  uint32_t pool_nodes = 1;
};

/// Pinned-frame buffer pool over one PageStore + IoScheduler.
class BufferPool {
 public:
  /// Creates a pool of options.frames frames of store->page_bytes()
  /// bytes each. `store` and `scheduler` are borrowed and must outlive
  /// the pool; the pool owns scheduler completion queues
  /// kPoolLoadQueue and kPoolWriteQueue (no other client may drain
  /// them). `topology` (optional) interleaves frames across its nodes.
  static Result<std::unique_ptr<BufferPool>> Create(
      disk::PageStore* store, io::IoScheduler* scheduler,
      BufferPoolOptions options, const numa::Topology* topology = nullptr);

  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Queues `count` pins. Hits complete onto their client queue before
  /// this returns; misses complete once their read lands (drive with
  /// Pump, collect with DrainPins). When every frame is busy a miss
  /// parks and is retried as frames free up — Submit never fails for
  /// lack of frames.
  Status SubmitPins(const PagePinRequest* requests, size_t count);

  /// Drives the pool: pumps the scheduler, applies load/write-back
  /// completions, retries parked pins. With `block`, waits until
  /// something progresses (or a short timeout elapses — re-check your
  /// condition and call again).
  Status Pump(bool block);

  /// Pops up to `max` pin completions from client queue `queue`.
  size_t DrainPins(uint32_t queue, PagePinCompletion* out, size_t max);

  /// Bytes of a pinned frame (page_bytes() of them). Valid only
  /// between the pin completion and Unpin.
  const char* Data(FrameId frame) const;

  /// Releases one pin. The frame stays cached (second chance) until
  /// the clock evicts it.
  void Unpin(FrameId frame);

  /// Appends one page through the write-back cache: allocates the next
  /// spool page id, encodes the tuples into a frame, marks it dirty,
  /// and returns without touching the device. `stall_ns` (optional)
  /// accumulates the time spent waiting for a free frame.
  Result<disk::PageId> AppendPage(const Tuple* tuples, size_t count,
                                  uint64_t* stall_ns = nullptr);

  /// Blocks until no frame is dirty or mid-write-back (tests and the
  /// direct-read oracle; Close calls it). Returns the pool status.
  Status FlushAll();

  /// Durability barrier up to a spool position: blocks until every
  /// dirty frame holding a page id <= `limit` has retired its
  /// write-back. The data is then in the kernel's page cache — pair
  /// with IoScheduler::SubmitFlush (fdatasync) to make it durable. The
  /// recovery journal calls this before committing a run record
  /// (docs/recovery.md). Returns the pool status.
  Status FlushUpTo(disk::PageId limit);

  /// Flushes everything, stops the flusher thread, reaps every
  /// in-flight pool operation, and fails still-parked pins. Idempotent.
  /// After Close only stats() and status() are meaningful.
  Status Close();

  /// First I/O error the pool saw (reads or write-backs). A failed
  /// write-back latches here and surfaces through FlushAll/Close into
  /// the join's report.
  Status status() const;

  /// Forwards caller stall time to the scheduler's io_stall_ns.
  void AddStallNs(uint64_t ns);

  BufferPoolStats stats() const;
  const BufferPoolOptions& options() const { return options_; }
  size_t page_bytes() const { return page_bytes_; }
  /// The underlying scheduler (e.g. for its batch-size knobs). Its
  /// pool-owned completion queues must still not be drained directly.
  io::IoScheduler* scheduler() const { return scheduler_; }

 private:
  struct Frame {
    enum class State : uint8_t { kFree, kLoading, kResident };
    char* data = nullptr;
    disk::PageId page = 0;
    uint32_t pins = 0;
    State state = State::kFree;
    bool dirty = false;
    bool flushing = false;
    bool referenced = false;  // clock second-chance bit
    /// Pins awaiting this frame's in-flight load: (user_data, queue).
    std::vector<std::pair<uint64_t, uint32_t>> waiters;
  };

  BufferPool(disk::PageStore* store, io::IoScheduler* scheduler,
             BufferPoolOptions options, const numa::Topology* topology);

  /// Clock scan for a reusable frame: skips pinned/loading/flushing
  /// frames, clears referenced bits, nudges dirty frames toward the
  /// flusher, evicts a clean victim. kInvalidFrame when none exists.
  FrameId TryTakeFrameLocked();
  /// Routes one pin: hit, join-loading, fresh load (appended to
  /// `reads`), or parked. Returns false when parked.
  bool RoutePinLocked(const PagePinRequest& request,
                      std::vector<io::PageFetchRequest>& reads);
  /// Retries parked pins in FIFO order (or fails them all when the
  /// pool status has latched an error — a parked pin must never wait
  /// on a frame that will not transition). Returns true when any pin
  /// was routed or failed.
  bool CollectParkedLocked(std::vector<io::PageFetchRequest>& reads);
  /// Fails every parked pin with the latched status_ (no-op while OK).
  /// Called at the latch points so waiters learn promptly.
  void FailParkedLocked();
  /// Submits `reads` with mu_ dropped; on a rejected submit fails the
  /// affected frames' waiters.
  Status SubmitLoads(std::unique_lock<std::mutex>& lock,
                     std::vector<io::PageFetchRequest>& reads);
  /// Applies completions from the pool's scheduler queues. Returns
  /// true when at least one was processed.
  bool DrainSchedulerQueues();
  void ProcessLoadLocked(FrameId frame, const Status& status);
  void ProcessWriteLocked(FrameId frame, const Status& status);
  bool HasFlushCandidateLocked() const;
  void FlusherLoop();

  disk::PageStore* const store_;
  io::IoScheduler* const scheduler_;
  /// The creating thread's trace sink (the query being executed when
  /// the pool was built); the flusher thread attaches to it so
  /// write-back activity lands in that query's trace.
  obs::TraceSink* const trace_;
  const BufferPoolOptions options_;
  const size_t page_bytes_;
  uint32_t pool_nodes_ = 1;
  std::vector<std::unique_ptr<numa::Arena>> arenas_;

  mutable std::mutex mu_;
  /// Generic progress signal: a frame freed, a pin delivered, a
  /// write-back retired. Blocking Pumps wait here when the device is
  /// idle.
  std::condition_variable progress_;
  std::condition_variable flush_cv_;
  std::vector<Frame> frames_;
  std::unordered_map<disk::PageId, FrameId> table_;
  std::deque<PagePinRequest> parked_pins_;
  std::vector<std::deque<PagePinCompletion>> client_queues_;
  size_t clock_hand_ = 0;
  size_t dirty_frames_ = 0;     // dirty (whether or not mid-flush)
  size_t loading_frames_ = 0;
  size_t writes_inflight_ = 0;  // flush pages submitted, not completed
  bool stop_flusher_ = false;
  bool closed_ = false;
  Status status_;
  std::thread flusher_;

  // Stats (under mu_).
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t writebacks_ = 0;
  uint64_t append_pages_ = 0;
  uint64_t append_stall_ns_ = 0;
  uint64_t deferred_pins_ = 0;
};

}  // namespace mpsm::bufferpool

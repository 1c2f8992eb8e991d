// D-MPSM: the memory-constrained, disk-enabled MPSM join (§3.1).
//
// Both inputs are sorted into runs that are immediately spooled to a
// page store; only the pages around the key-domain position currently
// being joined are RAM-resident (Figure 4). All workers move through
// the key domain synchronously, following the page index; a prefetcher
// stages upcoming public pages ("yellow") into a bounded pool and pages
// processed by the slowest worker are released ("green"). Each worker
// keeps a sliding window of its own private run's pages; the window's
// low end advances with the index position.
#pragma once

#include <cstdint>
#include <string>

#include "bufferpool/buffer_pool.h"
#include "core/consumers.h"
#include "core/join_stats.h"
#include "core/join_types.h"
#include "disk/page_store.h"
#include "io/io_scheduler.h"
#include "parallel/worker_team.h"
#include "recovery/recovery_manager.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::disk {

/// Buffer-pool budget of a D-MPSM execution whose pool_budget_bytes is
/// unset.
inline constexpr uint64_t kDefaultPoolBudgetBytes = uint64_t{8} << 20;

/// Most vectored reads in flight at the I/O backend at once
/// (io::IoSchedulerOptions::queue_depth of every execution).
inline constexpr size_t kIoQueueDepth = 16;

/// Most adjacent pages coalesced into one vectored read or write-back,
/// and the per-worker private-window readahead cap
/// (io::IoSchedulerOptions::batch_pages of every execution).
inline constexpr size_t kIoBatchPages = 8;
static_assert(kIoBatchPages <= io::kMaxIovPerRead);

/// One execution's buffer pool: budget / page_bytes frames, floored at
/// team_size + 2 (a pin or append per worker plus a flush/load slot
/// pair) so the pool can always make progress. Each worker's readahead
/// takes up to a 2T-th of the frames (at most kIoBatchPages), and the
/// staging ring gets the rest but two.
struct DMpsmPoolShape {
  size_t frames = 0;
  /// Staging ring capacity for decoded shared S pages.
  size_t staging_capacity = 0;
  /// Per-worker private-window readahead in pages.
  size_t readahead = 0;
  /// Bytes of one frame (PageStore::PageBytes).
  size_t page_bytes = 0;

  /// The frames' resident bytes.
  uint64_t bytes() const { return uint64_t{frames} * page_bytes; }
};

/// D-MPSM's spill geometry. The I/O engine is derived: a store with a
/// synthetic device delay runs the threadpool backend (the one engine
/// that models it), any other runs io_uring when the kernel accepts it
/// and the threadpool when it does not (docs/io.md). Journaling is the
/// engine's per-query argument to Execute (EngineOptions::recovery).
struct DMpsmOptions {
  /// Page size in tuples for both spooled inputs.
  size_t tuples_per_page = 4096;

  /// Buffer-pool RAM budget in bytes (docs/storage.md); 0 means
  /// kDefaultPoolBudgetBytes. The pool's frames, and with them the
  /// staging ring and private-window readahead, fit the budget
  /// (PoolShape), so relations far larger than it run with eviction
  /// and write-back instead of growing RAM.
  uint64_t pool_budget_bytes = 0;

  /// Spool directory and synthetic I/O delay (see PageStoreOptions).
  std::string directory = "/tmp";
  uint32_t io_delay_us = 0;

  /// Checks every knob against its legal range (e.g. tuples_per_page
  /// >= 1). Execute and the engine front door both call this.
  Status Validate() const;

  /// The buffer pool an execution on `team_size` workers allocates.
  /// Execute allocates it, the join service reserves its bytes and the
  /// planner prices its hit rate from them.
  DMpsmPoolShape PoolShape(uint32_t team_size) const;
};

/// Observability for tests and the spill example.
struct DMpsmReport {
  IoStats io;
  /// Async I/O subsystem counters: pages read through the scheduler,
  /// vectored batches, coalescing wins, stall time, queue depths.
  io::IoSchedulerStats io_sched;
  /// The I/O engine the run used (derived: see DMpsmOptions).
  io::IoBackendKind io_backend_used = io::IoBackendKind::kThreadpool;
  /// Peak resident S pages in the shared staging ring.
  size_t peak_pool_pages = 0;
  /// Buffer pool counters: hits, misses, evictions, write-backs,
  /// append stalls (docs/storage.md).
  bufferpool::BufferPoolStats pool;
  /// Wall nanoseconds workers spent blocked spooling run pages, summed
  /// over workers: the wait for a free frame under async write-back.
  uint64_t spool_write_stall_ns = 0;
  /// Peak private-window tuples over all workers.
  size_t peak_window_tuples = 0;
  /// Entries in the S page index.
  size_t index_entries = 0;

  // ---------------------------------- crash recovery (docs/recovery.md)
  /// A validated manifest contributed durable state to this execution.
  bool resumed = false;
  /// Spooled runs re-attached from the manifest (phases 1/3 skipped
  /// for them) instead of re-sorted and re-spooled.
  uint32_t runs_reattached = 0;
  /// Phase-4 chunk walks skipped via restored consumer snapshots.
  uint32_t chunks_skipped = 0;
  /// Run/chunk records this execution durably committed.
  uint64_t journal_commits = 0;
};

/// The disk-enabled MPSM join (inner joins).
class DMpsmJoin {
 public:
  explicit DMpsmJoin(DMpsmOptions options = {}) : options_(options) {}

  /// Joins `r_private` with `s_public`, spooling all runs through a
  /// page store. Relations must be chunked into team.size() chunks.
  /// With a `journal` (docs/recovery.md) the spool is its persistent
  /// file, each durable run and completed chunk walk is committed to
  /// its manifest, and its resume state is re-attached; without one
  /// the spool is an anonymous temp file that dies with the process.
  Result<JoinRunInfo> Execute(
      WorkerTeam& team, const Relation& r_private, const Relation& s_public,
      ConsumerFactory& consumers, DMpsmReport* report = nullptr,
      const recovery::QueryJournal* journal = nullptr) const;

  const DMpsmOptions& options() const { return options_; }

 private:
  DMpsmOptions options_;
};

}  // namespace mpsm::disk

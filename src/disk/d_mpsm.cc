#include "disk/d_mpsm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/merge_join.h"
#include "disk/page_index.h"
#include "disk/staging_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/task_scheduler.h"
#include "recovery/join_journal.h"
#include "simd/caps.h"
#include "sort/radix_introsort.h"
#include "util/timer.h"

namespace mpsm::disk {

namespace {

/// One worker's spooled run: page ids in key order.
struct SpooledRun {
  std::vector<PageId> pages;
  std::vector<uint32_t> counts;
};

/// Scheduler completion queue the run-commit fdatasync barrier uses,
/// past the two the buffer pool owns.
constexpr uint32_t kJournalFlushQueue = bufferpool::kPoolWriteQueue + 1;

obs::Counter& JournalCommitCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_journal_commits_total",
      "Run/chunk records durably committed to join manifests");
  return c;
}
obs::Counter& ChunksSkippedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_chunks_skipped_total",
      "Phase-4 chunk walks skipped on resume via restored consumer state");
  return c;
}
obs::Counter& RunsReattachedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_runs_reattached_total",
      "Durable spooled runs re-attached on resume instead of re-sorted");
  return c;
}

/// Sorts a chunk and spools it; records index entries when `index` is
/// given (public input) or returns the page list (private input).
/// `worker_node` is the executing worker's node: the chunk's read is
/// charged local or remote against it.
/// Pages go through the pool's write-back cache (AppendPage: encode
/// into a frame, flush in the background); `spool_stall_ns`
/// accumulates the wall time this worker spent blocked spooling.
/// `content_checksum` (optional) receives fnv1a over the run's sorted
/// tuple bytes — the recovery manifest's per-run checksum.
Status SortAndSpool(const Chunk& chunk, uint32_t run_id,
                    numa::NodeId worker_node, PageStore& store,
                    bufferpool::BufferPool& pool, PerfCounters& counters,
                    PageIndex* index, SpooledRun* run_out,
                    uint64_t* spool_stall_ns,
                    uint64_t* content_checksum = nullptr) {
  // The materializing copy is fused into the sort's first MSD pass
  // (§2.3 amortization, SortCopyInto); counters keep charging copy +
  // sort so the model stays comparable with the unfused sort.
  // for_overwrite scratch: every slot is written by the fused copy
  // before it is read.
  auto sorted = std::make_unique_for_overwrite<Tuple[]>(chunk.size);
  sort::SortCopyInto(chunk.data, chunk.size, sorted.get(),
                     sort::RadixSortConfig{},
                     /*src_is_local=*/chunk.node == worker_node);
  counters.CountSort(chunk.size);
  counters.CountRead(chunk.node == worker_node, /*sequential=*/true,
                     chunk.size * sizeof(Tuple));
  counters.CountWrite(/*local=*/true, /*sequential=*/true,
                      chunk.size * sizeof(Tuple));
  if (content_checksum != nullptr) {
    *content_checksum =
        recovery::Fnv1a(sorted.get(), chunk.size * sizeof(Tuple));
  }

  const size_t per_page = store.tuples_per_page();
  for (size_t offset = 0; offset < chunk.size; offset += per_page) {
    const size_t count = std::min(per_page, chunk.size - offset);
    auto page = pool.AppendPage(sorted.get() + offset, count, spool_stall_ns);
    if (!page.ok()) return page.status();
    const PageId id = *page;
    if (index != nullptr) {
      index->Add(PageIndexEntry{sorted[offset].key, run_id, id,
                                static_cast<uint32_t>(count)});
    }
    if (run_out != nullptr) {
      run_out->pages.push_back(id);
      run_out->counts.push_back(static_cast<uint32_t>(count));
    }
  }
  return Status::OK();
}

/// Sliding window over one worker's private spooled run, fed by async
/// readahead: upcoming pages are pinned through the shared buffer pool
/// (own client queue) while the worker merges the current ones, so
/// private-run fetch latency overlaps join compute. Recently spooled
/// pages are often still frame-resident — those pins are pool hits and
/// cost no device read at all.
class PrivateWindow {
 public:
  /// `queue` is this window's private pin queue on `pool`;
  /// `readahead_pages` bounds the in-flight ring. `counters` receives
  /// io_submits / io_stall_ns attribution.
  PrivateWindow(const PageStore& store, const SpooledRun& run,
                bufferpool::BufferPool* pool, uint32_t queue,
                size_t readahead_pages, PerfCounters* counters)
      : store_(&store),
        run_(&run),
        pool_(pool),
        queue_(queue),
        readahead_(std::clamp<size_t>(readahead_pages, 1,
                                      io::kMaxIovPerRead)),
        counters_(counters),
        ring_(readahead_) {}

  ~PrivateWindow() {
    // Reap every pin still in flight, then release whatever the ring
    // holds: no frame may stay pinned after the window dies.
    std::array<bufferpool::PagePinCompletion, io::kMaxIovPerRead> sink;
    while (reaped_ < submitted_) {
      const size_t n = pool_->DrainPins(queue_, sink.data(), sink.size());
      if (n > 0) {
        reaped_ += n;
        for (size_t i = 0; i < n; ++i) {
          if (sink[i].frame != bufferpool::kInvalidFrame) {
            pool_->Unpin(sink[i].frame);
          }
        }
        continue;
      }
      pool_->Pump(/*block=*/true);
    }
    for (RingSlot& slot : ring_) {
      if (slot.ready && slot.frame != bufferpool::kInvalidFrame) {
        pool_->Unpin(slot.frame);
        slot.frame = bufferpool::kInvalidFrame;
      }
    }
  }

  /// Drops tuples with key < low_key, then loads pages until the window
  /// covers keys up to `high_key` (or the run is exhausted).
  Status AdvanceTo(uint64_t low_key, uint64_t high_key) {
    // Evict the prefix that can never match again (Figure 4: released
    // from RAM). Compact lazily to stay amortized O(1) per tuple.
    size_t drop = start_;
    while (drop < tuples_.size() && tuples_[drop].key < low_key) ++drop;
    start_ = drop;
    if (start_ > tuples_.size() / 2 && start_ > 4096) {
      tuples_.erase(tuples_.begin(),
                    tuples_.begin() + static_cast<ptrdiff_t>(start_));
      start_ = 0;
    }

    // Prefetch forward: keep loading while the last resident key could
    // still join with this public page.
    while (next_take_ < run_->pages.size() &&
           (tuples_.size() == start_ || tuples_.back().key <= high_key)) {
      MPSM_RETURN_NOT_OK(SubmitReadahead());
      MPSM_RETURN_NOT_OK(WaitForPage(next_take_));
      const size_t slot = next_take_ % readahead_;
      const size_t old_size = tuples_.size();
      tuples_.resize(old_size + store_->tuples_per_page());
      auto count = store_->DecodePage(pool_->Data(ring_[slot].frame),
                                      tuples_.data() + old_size);
      // Copy-out done: the frame goes back to the pool (second chance
      // keeps it cached) and the ring slot is reusable for readahead.
      pool_->Unpin(ring_[slot].frame);
      ring_[slot].frame = bufferpool::kInvalidFrame;
      ring_[slot].ready = false;
      if (!count.ok()) return count.status();
      tuples_.resize(old_size + *count);
      ++next_take_;
    }
    peak_tuples_ = std::max(peak_tuples_, tuples_.size() - start_);
    return Status::OK();
  }

  const Tuple* data() const { return tuples_.data() + start_; }
  size_t size() const { return tuples_.size() - start_; }
  size_t peak_tuples() const { return peak_tuples_; }

 private:
  struct RingSlot {
    bool ready = false;
    Status status;
    bufferpool::FrameId frame = bufferpool::kInvalidFrame;
  };

  /// Keeps up to `readahead_` pages of this run pinned or in flight.
  Status SubmitReadahead() {
    std::array<bufferpool::PagePinRequest, io::kMaxIovPerRead> requests;
    size_t n = 0;
    while (next_submit_ < run_->pages.size() &&
           next_submit_ < next_take_ + readahead_) {
      requests[n].page = run_->pages[next_submit_];
      requests[n].user_data = next_submit_;
      requests[n].queue = queue_;
      ++n;
      ++next_submit_;
    }
    if (n == 0) return Status::OK();
    submitted_ += n;
    if (counters_ != nullptr) ++counters_->io_submits;
    return pool_->SubmitPins(requests.data(), n);
  }

  /// Blocks until page ordinal `ordinal`'s pin completed; pumping the
  /// pool while waiting (the wait itself is recorded as stall).
  Status WaitForPage(size_t ordinal) {
    const size_t slot = ordinal % readahead_;
    WallTimer stall;
    bool stalled = false;
    while (!ring_[slot].ready) {
      std::array<bufferpool::PagePinCompletion, io::kMaxIovPerRead> done;
      const size_t n = pool_->DrainPins(queue_, done.data(), done.size());
      if (n == 0) {
        stalled = true;
        MPSM_RETURN_NOT_OK(pool_->Pump(/*block=*/true));
        continue;
      }
      reaped_ += n;
      for (size_t i = 0; i < n; ++i) {
        RingSlot& ring_slot = ring_[done[i].user_data % readahead_];
        ring_slot.ready = true;
        ring_slot.status = done[i].status;
        ring_slot.frame = done[i].frame;
      }
    }
    if (stalled) {
      const auto ns = static_cast<uint64_t>(stall.ElapsedSeconds() * 1e9);
      if (counters_ != nullptr) counters_->io_stall_ns += ns;
      pool_->AddStallNs(ns);
    }
    return ring_[slot].status;
  }

  const PageStore* store_;
  const SpooledRun* run_;
  bufferpool::BufferPool* pool_;
  const uint32_t queue_;
  const size_t readahead_;
  PerfCounters* counters_;
  std::vector<RingSlot> ring_;
  size_t next_submit_ = 0;  // next page ordinal to submit
  size_t next_take_ = 0;    // next page ordinal to consume
  size_t submitted_ = 0;
  size_t reaped_ = 0;
  std::vector<Tuple> tuples_;
  size_t start_ = 0;
  size_t peak_tuples_ = 0;
};

}  // namespace

Status DMpsmOptions::Validate() const {
  if (tuples_per_page == 0) {
    return Status::InvalidArgument("tuples_per_page must be >= 1");
  }
  if (directory.empty()) {
    return Status::InvalidArgument("directory must be non-empty");
  }
  return Status::OK();
}

DMpsmPoolShape DMpsmOptions::PoolShape(uint32_t team_size) const {
  const uint64_t budget =
      pool_budget_bytes != 0 ? pool_budget_bytes : kDefaultPoolBudgetBytes;
  DMpsmPoolShape shape;
  shape.page_bytes = PageStore::PageBytes(tuples_per_page);
  shape.frames = std::max<size_t>(budget / shape.page_bytes,
                                  size_t{team_size} + 2);
  shape.readahead =
      std::clamp<size_t>(shape.frames / (2 * team_size), 1, kIoBatchPages);
  shape.staging_capacity = std::max<size_t>(
      1, shape.frames - team_size * shape.readahead - 2);
  return shape;
}

Result<JoinRunInfo> DMpsmJoin::Execute(WorkerTeam& team,
                                       const Relation& r_private,
                                       const Relation& s_public,
                                       ConsumerFactory& consumers,
                                       DMpsmReport* report,
                                       const recovery::QueryJournal* journal)
    const {
  const uint32_t num_workers = team.size();
  if (r_private.num_chunks() != num_workers ||
      s_public.num_chunks() != num_workers) {
    return Status::InvalidArgument(
        "relations must be chunked into team.size() chunks");
  }
  MPSM_RETURN_NOT_OK(options_.Validate());
  if (journal != nullptr &&
      (journal->journal_path.empty() || journal->spool_path.empty())) {
    return Status::InvalidArgument(
        "a journal needs its journal_path and spool_path");
  }

  // Resume bookkeeping: which durable state a validated manifest lets
  // this execution skip. All empty on a cold start.
  const bool journaling = journal != nullptr;
  const bool strict_sync = journaling && journal->options.strict_sync;
  const bool checksum_runs = journaling && journal->options.checksum_runs;
  const recovery::ResumeState* resume =
      journaling ? &journal->resume : nullptr;
  const bool resuming = journaling && resume->HasWork();
  std::vector<bool> public_reattached(num_workers, false);
  std::vector<bool> private_reattached(num_workers, false);
  std::vector<bool> chunk_done(num_workers, false);
  auto* durable_consumers =
      dynamic_cast<DurableConsumerFactory*>(&consumers);

  PageStoreOptions store_options;
  store_options.tuples_per_page = options_.tuples_per_page;
  store_options.directory = options_.directory;
  store_options.io_delay_us = options_.io_delay_us;
  if (journaling) store_options.persist_path = journal->spool_path;
  PageStore store(store_options);
  MPSM_RETURN_NOT_OK(store.Open());
  if (resuming && resume->adopted_pages > 0) {
    MPSM_RETURN_NOT_OK(store.AdoptPages(resume->adopted_pages));
  }

  // One async page-I/O scheduler, fully owned by the buffer pool (one
  // completion queue for frame loads, one for write-backs). A synthetic
  // device delay needs the threadpool, the one engine that models it;
  // otherwise kAuto runs io_uring wherever the kernel sets up its ring
  // and the threadpool elsewhere.
  io::IoSchedulerOptions io_options;
  io_options.backend = options_.io_delay_us > 0
                           ? io::IoBackendKind::kThreadpool
                           : io::IoBackendKind::kAuto;
  io_options.queue_depth = kIoQueueDepth;
  io_options.batch_pages = kIoBatchPages;
  // Queues 0/1 feed the buffer pool; journaling adds a third for the
  // run-commit fdatasync barrier.
  io_options.completion_queues = journaling ? 3 : 2;
  MPSM_ASSIGN_OR_RETURN(
      auto io_scheduler,
      io::IoScheduler::Create(store.fd(), store.page_bytes(),
                              store.io_delay_us(), io_options));

  // The frames fit the budget, so larger-than-RAM relations run on
  // eviction + write-back instead of growing the pool.
  const DMpsmPoolShape shape = options_.PoolShape(num_workers);

  // The pool owns the scheduler's two queues; clients get pin queue 0
  // (the staging ring) plus 1 + w (worker w's private window).
  bufferpool::BufferPoolOptions pool_options;
  pool_options.frames = shape.frames;
  pool_options.client_queues = 1 + num_workers;
  pool_options.flush_batch_pages = kIoBatchPages;
  MPSM_ASSIGN_OR_RETURN(
      auto pool,
      bufferpool::BufferPool::Create(&store, io_scheduler.get(),
                                     pool_options, &team.topology()));

  std::vector<PageIndex> index_parts(num_workers);
  std::vector<SpooledRun> r_runs(num_workers);
  PageIndex s_index;
  std::optional<StagingPipeline> pipeline;
  std::vector<Status> worker_status(num_workers);
  std::vector<uint64_t> spool_stall(num_workers, 0);
  std::atomic<size_t> peak_window{0};

  // Re-attach durable state before the phases run: recorded runs fill
  // their index parts / page lists directly (their sort+spool morsels
  // become no-ops), and restored consumer snapshots mark whole chunk
  // walks as done.
  uint32_t runs_reattached = 0;
  uint32_t chunks_skipped = 0;
  if (resuming) {
    for (uint32_t w = 0; w < num_workers; ++w) {
      if (resume->public_runs[w].has_value()) {
        for (const PageIndexEntry& e : resume->public_runs[w]->pages) {
          index_parts[w].Add(e);
        }
        public_reattached[w] = true;
        ++runs_reattached;
      }
      if (resume->private_runs[w].has_value()) {
        for (const PageIndexEntry& e : resume->private_runs[w]->pages) {
          r_runs[w].pages.push_back(e.page);
          r_runs[w].counts.push_back(e.tuple_count);
        }
        private_reattached[w] = true;
        ++runs_reattached;
      }
      if (durable_consumers != nullptr &&
          resume->chunk_states[w].has_value() &&
          durable_consumers->RestoreWorker(w, *resume->chunk_states[w])
              .ok()) {
        chunk_done[w] = true;
        ++chunks_skipped;
      }
    }
    RunsReattachedCounter().Add(runs_reattached);
    ChunksSkippedCounter().Add(chunks_skipped);
  }
  const uint32_t active_consumers =
      num_workers - static_cast<uint32_t>(std::count(
                        chunk_done.begin(), chunk_done.end(), true));

  // The manifest: fresh on a cold start (truncating any stale file),
  // extended in place on resume.
  std::unique_ptr<recovery::JoinJournal> manifest;
  if (journaling) {
    if (resuming) {
      MPSM_ASSIGN_OR_RETURN(manifest, recovery::JoinJournal::OpenForAppend(
                                         journal->journal_path));
    } else {
      const recovery::QueryFingerprint fp = recovery::FingerprintFor(
          r_private, s_public, num_workers, options_.tuples_per_page);
      MPSM_ASSIGN_OR_RETURN(manifest,
                            recovery::JoinJournal::Create(
                                journal->journal_path, fp,
                                strict_sync));
    }
    manifest->set_kill_after_commits(journal->options.kill_after_commits);
    manifest->set_strict_sync(strict_sync);
  }

  // Commits one spooled run: pool write-back barrier for the run's
  // pages (their writes have *completed* — in the OS page cache, which
  // survives a process kill), then — under strict_sync — an fdatasync
  // on the spool fd through the scheduler's write barrier before the
  // manifest record (its own fdatasync). Either way a committed run is
  // re-attachable by a restarted process, so every manifest prefix
  // references only resume-visible spool state; strict additionally
  // makes each step power-loss durable in order. Serialized: commits
  // are per-run, a handful per query.
  std::mutex commit_mu;
  uint64_t flush_token = 0;
  // Write-back high-water mark: page ids are append-only and a page
  // never re-dirties after its write-back completes, so once the pool
  // has drained up to `flushed_limit` a later commit whose pages sit
  // below it can skip the barrier entirely (commits arrive in
  // per-phase bursts with overlapping page ranges).
  PageId flushed_limit = 0;
  bool flushed_any = false;
  auto commit_body = [&](const recovery::RunRecord& record,
                         PageId max_page) -> Status {
    std::lock_guard<std::mutex> guard(commit_mu);
    obs::TraceSpan span(obs::kCatRecovery, "recovery.commit_run");
    if (!flushed_any || max_page > flushed_limit) {
      MPSM_RETURN_NOT_OK(pool->FlushUpTo(max_page));
      flushed_limit = std::max(flushed_limit, max_page);
      flushed_any = true;
    }
    if (strict_sync) {
      const uint64_t token = ++flush_token;
      MPSM_RETURN_NOT_OK(
          io_scheduler->SubmitFlush(token, kJournalFlushQueue));
      for (;;) {
        io::PageFetchCompletion done;
        if (io_scheduler->Drain(kJournalFlushQueue, &done, 1) == 1) {
          if (done.user_data != token) {
            return Status::Internal("unexpected flush completion");
          }
          MPSM_RETURN_NOT_OK(done.status);
          break;
        }
        MPSM_RETURN_NOT_OK(io_scheduler->Pump(/*block=*/true));
      }
    }
    return manifest->CommitRun(record);
  };

  // Relaxed commits run on a dedicated committer thread so the
  // write-back drain (FlushUpTo) stays off the workers' critical path
  // — the whole journaling overhead would otherwise be un-overlapped
  // write waiting at every phase boundary. Strict mode keeps commits
  // inline: its point is that the phase does not advance past an
  // un-durable run.
  const bool async_commits = manifest != nullptr && !strict_sync;
  std::mutex committer_mu;
  std::condition_variable committer_cv;
  std::deque<std::function<Status()>> commit_queue;
  bool committer_stop = false;
  Status commit_status;  // first async-commit failure, latched
  std::thread committer;
  if (async_commits) {
    committer = std::thread([&] {
      for (;;) {
        std::function<Status()> fn;
        {
          std::unique_lock<std::mutex> lock(committer_mu);
          committer_cv.wait(lock, [&] {
            return committer_stop || !commit_queue.empty();
          });
          if (commit_queue.empty()) return;  // stop and drained
          fn = std::move(commit_queue.front());
          commit_queue.pop_front();
        }
        const Status st = fn();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(committer_mu);
          if (commit_status.ok()) commit_status = st;
        }
      }
    });
  }
  auto submit_commit = [&](std::function<Status()> fn) -> Status {
    if (!async_commits) return fn();
    {
      std::lock_guard<std::mutex> lock(committer_mu);
      commit_queue.push_back(std::move(fn));
    }
    committer_cv.notify_one();
    return Status::OK();
  };
  auto commit_run = [&](recovery::RunRecord record,
                        PageId max_page) -> Status {
    return submit_commit(
        [&commit_body, record = std::move(record), max_page] {
          return commit_body(record, max_page);
        });
  };

  // The paper's static scripts: worker w sorts and spools chunk w in
  // phases 1 and 3 and walks the page index against its own private
  // run in phase 4.
  PhasePipeline phases(team.topology(), num_workers, SchedulerKind::kStatic);

  // Phase 1: sort + spool the public chunks; collect index entries.
  phases.AddPhase(
      kPhaseSortPublic, [&] { return ChunkMorsels(num_workers); },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        if (public_reattached[w]) return;  // durable from a prior run
        uint64_t checksum = 0;
        worker_status[w] = SortAndSpool(
            s_public.chunk(w), w, ctx.node, store, *pool,
            ctx.Counters(kPhaseSortPublic), &index_parts[w], nullptr,
            &spool_stall[w], checksum_runs ? &checksum : nullptr);
        if (manifest && worker_status[w].ok()) {
          recovery::RunRecord record;
          record.run_id = w;
          record.is_private = false;
          record.content_checksum = checksum;
          record.pages = index_parts[w].entries();
          PageId max_page = 0;
          for (const PageIndexEntry& e : record.pages) {
            max_page = std::max(max_page, e.page);
          }
          worker_status[w] = commit_run(std::move(record), max_page);
        }
      });

  // Merge the page index and set up the staging ring; it pins nothing
  // before phase 4's first Acquire, so phase 3's appends keep every
  // frame. Workers whose chunk walk is already done (restored consumer
  // snapshots) never acquire from the ring, so the pipeline's release
  // gating counts only the active consumers; with none active, phase 4
  // is a no-op and there is no ring.
  phases.AddSerial(kPhasePartition, [&](WorkerContext&) {
    for (auto& part : index_parts) s_index.Append(part);
    s_index.Finalize();
    if (active_consumers > 0) {
      pipeline.emplace(store, s_index, shape.staging_capacity,
                       active_consumers, pool.get());
    }
  });

  // Phase 3: sort + spool the private chunks. A worker whose chunk
  // walk is already done needs no private run at all.
  phases.AddPhase(
      kPhaseSortPrivate, [&] { return ChunkMorsels(num_workers); },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        if (private_reattached[w] || chunk_done[w]) return;
        uint64_t checksum = 0;
        // The journal path also collects index entries for the private
        // run: re-attachment needs its per-page min keys and counts.
        PageIndex private_part;
        Status st = SortAndSpool(
            r_private.chunk(w), w, ctx.node, store, *pool,
            ctx.Counters(kPhaseSortPrivate),
            manifest ? &private_part : nullptr, &r_runs[w], &spool_stall[w],
            checksum_runs ? &checksum : nullptr);
        if (manifest && st.ok()) {
          recovery::RunRecord record;
          record.run_id = w;
          record.is_private = true;
          record.content_checksum = checksum;
          record.pages = private_part.entries();
          PageId max_page = 0;
          for (const PageIndexEntry& e : record.pages) {
            max_page = std::max(max_page, e.page);
          }
          st = commit_run(std::move(record), max_page);
        }
        if (worker_status[w].ok()) worker_status[w] = st;
      });

  // Phase 4: walk the key domain in page-index order, joining each
  // public page in its pinned frame against the private window. The
  // workers' Acquires keep the staging ring's pins running ahead, and
  // the private window keeps readahead in flight while the worker
  // merges (docs/io.md).
  const simd::SimdKind merge_simd = simd::Resolve(simd::SimdKind::kAuto);
  phases.AddPhase(
      kPhaseJoin, [&] { return ChunkMorsels(num_workers); },
      [&](WorkerContext& ctx, const Morsel& morsel) {
        const uint32_t w = morsel.task;
        if (chunk_done[w]) return;  // restored snapshot covers this walk
        PerfCounters& counters = ctx.Counters(kPhaseJoin);
        JoinConsumer& consumer = consumers.ConsumerForWorker(w);
        PrivateWindow window(store, r_runs[w], pool.get(), /*queue=*/1 + w,
                             shape.readahead, &counters);

        // On error — whether from this consumer's earlier spool phases
        // or mid-walk — the worker keeps draining (acquire + release)
        // so the other consumers and the pool never wedge waiting for
        // its releases.
        bool failed = !worker_status[w].ok();
        for (size_t pos = 0; pos < s_index.size(); ++pos) {
          const PageFrame* frame =
              pipeline->Acquire(pos, &counters.io_stall_ns);
          if (frame == nullptr) break;  // pipeline stopped on I/O error
          if (!failed && !frame->tuples.empty()) {
            const uint64_t high_key = frame->tuples.back().key;
            Status st = window.AdvanceTo(frame->entry.min_key, high_key);
            if (!st.ok()) {
              if (worker_status[w].ok()) worker_status[w] = st;
              failed = true;
            } else {
              const auto scan = MergeJoinRunPairWith(
                  merge_simd, window.data(), window.size(),
                  frame->tuples.data(), frame->tuples.size(),
                  [&](size_t, const Tuple& r, const Tuple* s,
                      size_t count) {
                    consumer.OnMatch(r, s, count);
                    counters.output_tuples += count;
                  });
              counters.CountRead(/*local=*/true, /*sequential=*/true,
                                 (scan.r_end + scan.s_end) * sizeof(Tuple));
            }
          }
          pipeline->Release(pos);
        }
        // The walk finished: commit this chunk's consumer snapshot so
        // a restarted query can skip the whole walk. The snapshot is
        // self-contained — no spool barrier needed, just the record's
        // own fdatasync.
        if (!failed && worker_status[w].ok() && manifest &&
            durable_consumers != nullptr) {
          obs::TraceSpan commit_span(obs::kCatRecovery,
                                     "recovery.commit_chunk");
          recovery::ChunkRecord record;
          record.worker = w;
          record.state = durable_consumers->SerializeWorker(w);
          worker_status[w] = submit_commit(
              [&manifest, record = std::move(record)] {
                return manifest->CommitChunk(record);
              });
        }

        size_t expected = peak_window.load(std::memory_order_relaxed);
        while (window.peak_tuples() > expected &&
               !peak_window.compare_exchange_weak(expected,
                                                  window.peak_tuples())) {
        }
      });

  WallTimer timer;
  phases.Run(team);

  // Drain the committer before the pool winds down (commits call
  // FlushUpTo) and before the report reads manifest->commits().
  if (async_commits) {
    {
      std::lock_guard<std::mutex> lock(committer_mu);
      committer_stop = true;
    }
    committer_cv.notify_one();
    committer.join();
  }

  // The pipeline must reap its in-flight pins and unpin its frames
  // before the pool closes; the pool's close flushes every dirty frame and
  // surfaces any write-back error, and must precede the report so the
  // counters are final.
  if (pipeline.has_value()) pipeline->Stop();
  const Status pool_status = pool->Close();

  if (report != nullptr) {
    report->io = store.io_stats();
    report->io_sched = io_scheduler->stats();
    report->io_backend_used = io_scheduler->backend().kind();
    report->peak_pool_pages =
        pipeline ? pipeline->peak_resident_pages() : 0;
    report->pool = pool->stats();
    for (const uint64_t ns : spool_stall) {
      report->spool_write_stall_ns += ns;
    }
    report->peak_window_tuples = peak_window.load(std::memory_order_relaxed);
    report->index_entries = s_index.size();
    report->resumed = resuming;
    report->runs_reattached = runs_reattached;
    report->chunks_skipped = chunks_skipped;
    report->journal_commits = manifest ? manifest->commits() : 0;
  }
  if (manifest) JournalCommitCounter().Add(manifest->commits());

  for (const Status& st : worker_status) {
    MPSM_RETURN_NOT_OK(st);
  }
  // Committer joined above; a failed async commit fails the query like
  // an inline one would (artifacts stay for the retry).
  MPSM_RETURN_NOT_OK(commit_status);
  if (pipeline.has_value()) {
    MPSM_RETURN_NOT_OK(pipeline->status());
  }
  MPSM_RETURN_NOT_OK(pool_status);

  // Success: the durable artifacts are retired (a failed or killed run
  // leaves them for the retry to resume from).
  if (journaling && !journal->options.retain_artifacts) {
    manifest->Discard();  // skip the close-time sync of a doomed file
    manifest.reset();
    recovery::JoinJournal::Remove(journal->journal_path);
    store.RemovePersistent();
  }
  return CollectRunInfo(team, timer.ElapsedSeconds());
}

}  // namespace mpsm::disk

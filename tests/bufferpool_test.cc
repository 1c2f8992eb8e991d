// Buffer pool invariants (docs/storage.md): pinned frames are never
// evicted, dirty frames are written back before their frame is reused,
// appended pages are readable through the pool while still dirty, and
// a randomized multi-worker pin/read/append stress agrees with a
// direct-read oracle after FlushAll.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "disk/page_store.h"
#include "flaky_backend.h"
#include "io/io_scheduler.h"
#include "util/rng.h"

namespace mpsm {
namespace {

using bufferpool::BufferPool;
using bufferpool::BufferPoolOptions;
using bufferpool::FrameId;
using bufferpool::kInvalidFrame;
using bufferpool::PagePinCompletion;
using bufferpool::PagePinRequest;
using disk::PageId;
using disk::PageStore;
using disk::PageStoreOptions;

constexpr size_t kTuplesPerPage = 4;

/// A store + scheduler + pool wired together the way d_mpsm does it:
/// two scheduler completion queues owned by the pool (loads +
/// write-backs), pin completions on the pool's own client queues.
struct PoolFixture {
  PoolFixture(size_t frames, uint32_t client_queues,
              size_t flush_batch_pages = 2) {
    PageStoreOptions store_options;
    store_options.tuples_per_page = kTuplesPerPage;
    store = std::make_unique<PageStore>(store_options);
    EXPECT_TRUE(store->Open().ok());

    io::IoSchedulerOptions io_options;
    io_options.backend = io::IoBackendKind::kThreadpool;
    io_options.completion_queues = 2;  // pool loads + write-backs
    auto sched = io::IoScheduler::Create(store->fd(), store->page_bytes(),
                                         store->io_delay_us(), io_options);
    EXPECT_TRUE(sched.ok());
    scheduler = std::move(*sched);

    BufferPoolOptions pool_options;
    pool_options.frames = frames;
    pool_options.client_queues = client_queues;
    pool_options.flush_batch_pages = flush_batch_pages;
    auto created =
        BufferPool::Create(store.get(), scheduler.get(), pool_options);
    EXPECT_TRUE(created.ok());
    pool = std::move(*created);
  }

  ~PoolFixture() {
    if (pool != nullptr) {
      EXPECT_TRUE(pool->Close().ok());
    }
  }

  /// One synchronous pin through the async API: submit, pump until the
  /// completion lands on `queue`, and return it.
  PagePinCompletion Pin(PageId page, uint32_t queue = 0) {
    PagePinRequest request;
    request.page = page;
    request.user_data = page;
    request.queue = queue;
    EXPECT_TRUE(pool->SubmitPins(&request, 1).ok());
    PagePinCompletion completion;
    while (pool->DrainPins(queue, &completion, 1) == 0) {
      EXPECT_TRUE(pool->Pump(/*block=*/true).ok());
    }
    EXPECT_EQ(completion.user_data, page);
    return completion;
  }

  std::unique_ptr<PageStore> store;
  std::unique_ptr<io::IoScheduler> scheduler;
  std::unique_ptr<BufferPool> pool;
};

/// Deterministic page payload: tuple i of page `page` is
/// {page * 100 + i, page}.
std::vector<Tuple> PagePayload(uint64_t page, size_t count = kTuplesPerPage) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < count; ++i) {
    tuples.push_back(Tuple{page * 100 + i, page});
  }
  return tuples;
}

/// Decodes a pinned frame and checks it holds PagePayload(page).
void ExpectFrameHoldsPage(PoolFixture& fix, FrameId frame, uint64_t page) {
  std::vector<Tuple> out(kTuplesPerPage);
  auto count = fix.store->DecodePage(fix.pool->Data(frame), out.data());
  ASSERT_TRUE(count.ok());
  const auto expected = PagePayload(page);
  ASSERT_EQ(*count, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

// ------------------------------------------------------------ options

TEST(BufferPoolOptionsTest, ValidateRejectsIllegalKnobs) {
  BufferPoolOptions ok;
  EXPECT_TRUE(ok.Validate().ok());

  BufferPoolOptions no_frames = ok;
  no_frames.frames = 0;
  EXPECT_FALSE(no_frames.Validate().ok());

  BufferPoolOptions no_queues = ok;
  no_queues.client_queues = 0;
  EXPECT_FALSE(no_queues.Validate().ok());

  BufferPoolOptions no_batch = ok;
  no_batch.flush_batch_pages = 0;
  EXPECT_FALSE(no_batch.Validate().ok());
}

TEST(BufferPoolOptionsTest, CreateRejectsSchedulerWithoutPoolQueues) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = kTuplesPerPage;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());

  io::IoSchedulerOptions io_options;
  io_options.completion_queues = 1;  // pool needs queues 0 and 1
  auto scheduler = io::IoScheduler::Create(
      store.fd(), store.page_bytes(), store.io_delay_us(), io_options);
  ASSERT_TRUE(scheduler.ok());

  auto pool =
      BufferPool::Create(&store, scheduler->get(), BufferPoolOptions{});
  EXPECT_FALSE(pool.ok());
}

// --------------------------------------------------------- invariants

TEST(BufferPoolTest, HitsServeRepinsWithoutDeviceReads) {
  PoolFixture fix(/*frames=*/4, /*client_queues=*/1);
  std::vector<PageId> pages;
  for (uint64_t p = 0; p < 3; ++p) {
    const auto tuples = PagePayload(p);
    auto id = fix.store->WritePage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    pages.push_back(*id);
  }

  for (const PageId page : pages) {
    auto completion = fix.Pin(page);
    ASSERT_TRUE(completion.status.ok());
    ExpectFrameHoldsPage(fix, completion.frame, page);
    fix.pool->Unpin(completion.frame);
  }
  const auto cold = fix.pool->stats();
  EXPECT_EQ(cold.misses, pages.size());
  EXPECT_EQ(cold.hits, 0u);

  // Everything fits in the 4 frames, so the second pass is all hits.
  for (const PageId page : pages) {
    auto completion = fix.Pin(page);
    ASSERT_TRUE(completion.status.ok());
    ExpectFrameHoldsPage(fix, completion.frame, page);
    fix.pool->Unpin(completion.frame);
  }
  const auto warm = fix.pool->stats();
  EXPECT_EQ(warm.misses, pages.size());
  EXPECT_EQ(warm.hits, pages.size());
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  PoolFixture fix(/*frames=*/2, /*client_queues=*/1);
  constexpr uint64_t kPages = 12;
  std::vector<PageId> pages;
  for (uint64_t p = 0; p < kPages; ++p) {
    const auto tuples = PagePayload(p);
    auto id = fix.store->WritePage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    pages.push_back(*id);
  }

  // Hold a pin on page 0 while churning every other page through the
  // one remaining frame.
  auto held = fix.Pin(pages[0]);
  ASSERT_TRUE(held.status.ok());
  for (uint64_t p = 1; p < kPages; ++p) {
    auto completion = fix.Pin(pages[p]);
    ASSERT_TRUE(completion.status.ok());
    EXPECT_NE(completion.frame, held.frame);
    ExpectFrameHoldsPage(fix, completion.frame, p);
    fix.pool->Unpin(completion.frame);
    // The held frame still maps page 0 with its bytes intact.
    ExpectFrameHoldsPage(fix, held.frame, 0);
  }
  const auto stats = fix.pool->stats();
  EXPECT_GT(stats.evictions, 0u);

  // The pinned page stayed in the table: re-pinning it is a hit on the
  // very same frame.
  const uint64_t hits_before = stats.hits;
  auto again = fix.Pin(pages[0]);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.frame, held.frame);
  EXPECT_EQ(fix.pool->stats().hits, hits_before + 1);
  fix.pool->Unpin(again.frame);
  fix.pool->Unpin(held.frame);
}

TEST(BufferPoolTest, DirtyFramesAreFlushedBeforeReuse) {
  PoolFixture fix(/*frames=*/4, /*client_queues=*/1,
                  /*flush_batch_pages=*/2);
  // Appending 4x the frame budget forces every frame through the
  // dirty -> written-back -> evicted -> reused cycle.
  constexpr uint64_t kPages = 16;
  std::vector<PageId> pages;
  for (uint64_t p = 0; p < kPages; ++p) {
    const auto tuples = PagePayload(p);
    auto id = fix.pool->AppendPage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    pages.push_back(*id);
  }
  ASSERT_TRUE(fix.pool->FlushAll().ok());

  const auto stats = fix.pool->stats();
  EXPECT_EQ(stats.append_pages, kPages);
  // Every appended page was written back exactly once, and reusing the
  // flushed frames counted as evictions.
  EXPECT_EQ(stats.writebacks, kPages);
  EXPECT_GT(stats.evictions, 0u);

  // Direct-read oracle: had a dirty frame been reused before its
  // write-back, the device would hold a stale (zero) page here.
  std::vector<Tuple> out(kTuplesPerPage);
  for (uint64_t p = 0; p < kPages; ++p) {
    auto count = fix.store->ReadPage(pages[p], out.data());
    ASSERT_TRUE(count.ok());
    const auto expected = PagePayload(p);
    ASSERT_EQ(*count, expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[i], expected[i]);
    }
  }
}

TEST(BufferPoolTest, AppendedPagesAreReadableWhileDirty) {
  PoolFixture fix(/*frames=*/8, /*client_queues=*/1);
  std::vector<PageId> pages;
  for (uint64_t p = 0; p < 4; ++p) {
    const auto tuples = PagePayload(p);
    auto id = fix.pool->AppendPage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    pages.push_back(*id);
  }

  // No FlushAll: the pins must be served from the dirty resident
  // frames, not the device.
  for (uint64_t p = 0; p < 4; ++p) {
    auto completion = fix.Pin(pages[p]);
    ASSERT_TRUE(completion.status.ok());
    ExpectFrameHoldsPage(fix, completion.frame, p);
    fix.pool->Unpin(completion.frame);
  }
  const auto stats = fix.pool->stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 0u);
}

// ------------------------------------------------------------- stress

TEST(BufferPoolStressTest, RandomizedWorkersMatchDirectReadOracle) {
  PoolFixture fix(/*frames=*/6, /*client_queues=*/4,
                  /*flush_batch_pages=*/2);
  constexpr uint64_t kSeedPages = 32;
  constexpr uint32_t kThreads = 4;
  constexpr int kOpsPerThread = 300;

  std::vector<PageId> seed_pages;
  for (uint64_t p = 0; p < kSeedPages; ++p) {
    const auto tuples = PagePayload(p);
    auto id = fix.store->WritePage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    seed_pages.push_back(*id);
  }

  // Each worker mixes pins of the seed pages with appends of its own
  // pages (payload keyed by a thread-unique tag the oracle re-checks
  // after FlushAll). All traffic contends for 6 frames.
  std::atomic<bool> failed{false};
  std::vector<std::vector<PageId>> appended(kThreads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x9E1ull * (t + 1));
      std::vector<Tuple> out(kTuplesPerPage);
      for (int op = 0; op < kOpsPerThread && !failed; ++op) {
        if (rng.Next() % 4 == 0) {
          // Append a page whose constant payload names this thread and
          // op; the oracle verifies it on the device after FlushAll.
          const uint64_t tag = (uint64_t{t} << 32) | uint64_t(op);
          std::vector<Tuple> tuples(kTuplesPerPage, Tuple{tag, tag});
          auto id = fix.pool->AppendPage(tuples.data(), tuples.size());
          if (!id.ok()) {
            failed = true;
            break;
          }
          appended[t].push_back(*id);
        } else {
          const PageId page = seed_pages[rng.Next() % kSeedPages];
          PagePinRequest request;
          request.page = page;
          request.user_data = page;
          request.queue = t;
          if (!fix.pool->SubmitPins(&request, 1).ok()) {
            failed = true;
            break;
          }
          PagePinCompletion completion;
          while (fix.pool->DrainPins(t, &completion, 1) == 0) {
            if (!fix.pool->Pump(/*block=*/true).ok()) {
              failed = true;
              break;
            }
          }
          if (failed) break;
          if (!completion.status.ok() ||
              completion.frame == kInvalidFrame) {
            failed = true;
            break;
          }
          auto count =
              fix.store->DecodePage(fix.pool->Data(completion.frame),
                                    out.data());
          fix.pool->Unpin(completion.frame);
          if (!count.ok() || *count != kTuplesPerPage ||
              out[0].key != page * 100 || out[0].payload != page) {
            failed = true;
            break;
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  ASSERT_FALSE(failed);

  // Oracle: after FlushAll every page — seed and appended — must be
  // bit-correct on the device.
  ASSERT_TRUE(fix.pool->FlushAll().ok());
  std::vector<Tuple> out(kTuplesPerPage);
  for (uint64_t p = 0; p < kSeedPages; ++p) {
    auto count = fix.store->ReadPage(seed_pages[p], out.data());
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, kTuplesPerPage);
    EXPECT_EQ(out[0].key, p * 100);
    EXPECT_EQ(out[0].payload, p);
  }
  size_t total_appended = 0;
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (const PageId page : appended[t]) {
      auto count = fix.store->ReadPage(page, out.data());
      ASSERT_TRUE(count.ok());
      ASSERT_EQ(*count, kTuplesPerPage);
      // Appended payloads are constant per page; all tuples agree and
      // carry the appending thread's tag in the upper half.
      EXPECT_EQ(out[0].key >> 32, t);
      for (size_t i = 1; i < kTuplesPerPage; ++i) {
        EXPECT_EQ(out[i], out[0]);
      }
      ++total_appended;
    }
  }
  const auto stats = fix.pool->stats();
  EXPECT_EQ(stats.append_pages, total_appended);
  EXPECT_EQ(stats.writebacks, total_appended);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// With every frame consumed by a failing load, pins parked for a free
// frame must fail promptly with the latched pool error instead of
// waiting forever for a frame that will never be released.
TEST(BufferPoolErrorTest, ParkedPinsFailPromptlyOnLatchedError) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = kTuplesPerPage;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t p = 0; p < 2; ++p) {
    const auto payload = PagePayload(p);
    ASSERT_TRUE(store.WritePage(payload.data(), payload.size()).ok());
  }

  io::FlakyBackend::Options flaky;
  flaky.fail_once_reads = 1;  // the first load dies, latching the pool
  io::IoSchedulerOptions io_options;
  io_options.batch_pages = 1;
  io_options.completion_queues = 2;
  auto scheduler = io::IoScheduler::CreateWithBackend(
      std::make_unique<io::FlakyBackend>(8, flaky), store.fd(),
      store.page_bytes(), store.io_delay_us(), io_options);
  ASSERT_TRUE(scheduler.ok());

  BufferPoolOptions pool_options;
  pool_options.frames = 1;  // page 0 takes the only frame; page 1 parks
  auto created =
      BufferPool::Create(&store, scheduler->get(), pool_options);
  ASSERT_TRUE(created.ok());
  BufferPool& pool = **created;

  PagePinRequest requests[2];
  for (uint64_t p = 0; p < 2; ++p) {
    requests[p].page = p;
    requests[p].user_data = p;
    requests[p].queue = 0;
  }
  ASSERT_TRUE(pool.SubmitPins(requests, 2).ok());

  size_t completed = 0;
  PagePinCompletion done[2];
  while (completed < 2) {
    ASSERT_TRUE(pool.Pump(/*block=*/true).ok());
    const size_t n = pool.DrainPins(0, done + completed, 2 - completed);
    for (size_t i = completed; i < completed + n; ++i) {
      EXPECT_FALSE(done[i].status.ok());
      EXPECT_EQ(done[i].frame, kInvalidFrame);
    }
    completed += n;
  }
  EXPECT_GE(pool.stats().deferred_pins, 1u);
  // The latched load error surfaces at Close, like a write-back error.
  EXPECT_FALSE(pool.Close().ok());
}

}  // namespace
}  // namespace mpsm

// The async batched page-I/O subsystem (src/io/): backend conformance
// across threadpool / uring, IoScheduler coalescing, queue-depth
// and byte-budget enforcement, completion routing, fault injection via
// a flaky mock backend, and D-MPSM on each engine it derives.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/reference_join.h"
#include "bufferpool/buffer_pool.h"
#include "core/consumers.h"
#include "disk/d_mpsm.h"
#include "disk/page_index.h"
#include "disk/page_store.h"
#include "disk/staging_pipeline.h"
#include "flaky_backend.h"
#include "io/backend_factories.h"
#include "io/io_backend.h"
#include "io/io_scheduler.h"
#include "numa/topology.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

using disk::PageIndex;
using disk::PageIndexEntry;
using disk::PageStore;
using disk::PageStoreOptions;
using disk::StagingPipeline;
using io::AsyncIoBackend;
using io::IoBackendKind;
using io::IoCompletion;
using io::IoScheduler;
using io::IoSchedulerOptions;
using io::PageFetchCompletion;
using io::PageFetchRequest;

// Backends available on this host (uring only when the runtime probe
// succeeds — CI containers without io_uring still run the suite).
std::vector<IoBackendKind> AvailableBackends() {
  std::vector<IoBackendKind> kinds = {IoBackendKind::kThreadpool};
  if (io::UringSupported()) kinds.push_back(IoBackendKind::kUring);
  return kinds;
}

std::string BackendName(const testing::TestParamInfo<IoBackendKind>& info) {
  return IoBackendKindName(info.param);
}

/// A store with `num_pages` pages; page p holds tuples {key=p, pay=i}.
void FillStore(PageStore& store, uint64_t num_pages, size_t per_page) {
  for (uint64_t p = 0; p < num_pages; ++p) {
    std::vector<Tuple> tuples(per_page);
    for (size_t i = 0; i < per_page; ++i) {
      tuples[i] = Tuple{p, static_cast<uint64_t>(i)};
    }
    ASSERT_TRUE(store.WritePage(tuples.data(), tuples.size()).ok());
  }
}

// ------------------------------------------------------ kind resolution

TEST(IoBackendKindTest, AutoResolvesToConcreteKind) {
  const IoBackendKind resolved =
      io::ResolveIoBackendKind(IoBackendKind::kAuto);
  EXPECT_NE(resolved, IoBackendKind::kAuto);
  EXPECT_EQ(resolved, io::UringSupported() ? IoBackendKind::kUring
                                           : IoBackendKind::kThreadpool);
}

TEST(IoBackendKindTest, AutoFallsBackWhenTheRingCannotBeSetUp) {
  // The cached probe passed, yet a later ring is refused: here no file
  // descriptor is left, so io_uring_setup fails with EMFILE.
  if (!io::UringSupported()) GTEST_SKIP() << "io_uring unavailable";
  // Build each engine once first: UBSan's vptr check tests a vtable it
  // has not cached by writing it through a pipe, which needs two free
  // descriptors.
  ASSERT_TRUE(io::CreateIoBackend(IoBackendKind::kUring, 16).ok());
  ASSERT_TRUE(io::CreateIoBackend(IoBackendKind::kThreadpool, 16).ok());
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit no_new_fd = saved;
  no_new_fd.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &no_new_fd), 0);
  auto uring = io::CreateIoBackend(IoBackendKind::kUring, 16);
  auto automatic = io::CreateIoBackend(IoBackendKind::kAuto, 16);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  ASSERT_FALSE(uring.ok());
  EXPECT_EQ(uring.status().code(), StatusCode::kNotSupported);
  ASSERT_TRUE(automatic.ok()) << automatic.status().ToString();
  EXPECT_EQ((*automatic)->kind(), IoBackendKind::kThreadpool);
}

// ------------------------------------------- backend conformance suite

class IoBackendConformanceTest
    : public testing::TestWithParam<IoBackendKind> {};

TEST_P(IoBackendConformanceTest, CompletesAllReadsInAnyOrder) {
  PageStoreOptions options;
  options.tuples_per_page = 16;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());
  constexpr uint64_t kPages = 24;
  FillStore(store, kPages, 16);

  auto backend = io::CreateIoBackend(GetParam(), /*queue_depth=*/8);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  // Submit in waves of the queue depth; completions may arrive in any
  // order but every user_data must appear exactly once.
  std::vector<std::vector<char>> buffers(kPages);
  std::set<uint64_t> seen;
  uint64_t next = 0;
  size_t in_flight = 0;
  while (seen.size() < kPages) {
    while (next < kPages && in_flight < 8) {
      buffers[next].resize(store.page_bytes());
      io::IoRead read;
      read.fd = store.fd();
      read.offset = store.OffsetOfPage(next);
      read.iov_count = 1;
      read.iov[0] = {buffers[next].data(), store.page_bytes()};
      read.user_data = next;
      ASSERT_TRUE((*backend)->SubmitRead(read).ok());
      ++next;
      ++in_flight;
    }
    IoCompletion done[8];
    const size_t n = (*backend)->PollCompletions(done, 8, /*block=*/true);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(done[i].status.ok()) << done[i].status.ToString();
      EXPECT_TRUE(seen.insert(done[i].user_data).second)
          << "duplicate completion " << done[i].user_data;
      --in_flight;
    }
  }
  EXPECT_EQ((*backend)->InFlight(), 0u);

  // Every buffer holds its page (first tuple key == page id).
  for (uint64_t p = 0; p < kPages; ++p) {
    std::vector<Tuple> tuples(16);
    auto count = store.DecodePage(buffers[p].data(), tuples.data());
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(tuples[0].key, p);
  }
}

TEST_P(IoBackendConformanceTest, ReadPastEofFailsCleanly) {
  PageStoreOptions options;
  options.tuples_per_page = 8;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());
  FillStore(store, 2, 8);

  auto backend = io::CreateIoBackend(GetParam(), /*queue_depth=*/2);
  ASSERT_TRUE(backend.ok());
  std::vector<char> buffer(store.page_bytes());
  io::IoRead read;
  read.fd = store.fd();
  read.offset = store.OffsetOfPage(100);  // far past EOF
  read.iov_count = 1;
  read.iov[0] = {buffer.data(), store.page_bytes()};
  read.user_data = 7;
  ASSERT_TRUE((*backend)->SubmitRead(read).ok());
  IoCompletion done;
  size_t n = 0;
  while (n == 0) n = (*backend)->PollCompletions(&done, 1, /*block=*/true);
  EXPECT_EQ(done.user_data, 7u);
  EXPECT_FALSE(done.status.ok());
  EXPECT_EQ(done.status.code(), StatusCode::kIoError);
}

INSTANTIATE_TEST_SUITE_P(Backends, IoBackendConformanceTest,
                         testing::ValuesIn(AvailableBackends()),
                         BackendName);

// ------------------------------------------------- scheduler policies

class IoSchedulerTest : public testing::TestWithParam<IoBackendKind> {
 protected:
  void Open(size_t per_page, uint64_t num_pages) {
    PageStoreOptions options;
    options.tuples_per_page = per_page;
    store_.emplace(options);
    ASSERT_TRUE(store_->Open().ok());
    FillStore(*store_, num_pages, per_page);
  }

  std::optional<PageStore> store_;
};

TEST_P(IoSchedulerTest, CoalescesAdjacentPagesIntoVectoredReads) {
  Open(/*per_page=*/16, /*num_pages=*/32);
  IoSchedulerOptions options;
  options.backend = GetParam();
  options.queue_depth = 4;
  options.batch_pages = 8;
  auto scheduler =
      IoScheduler::Create(store_->fd(), store_->page_bytes(),
                          store_->io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  // 32 adjacent page ids submitted in order -> at most ceil(32/8) = 4
  // vectored reads, 28 pages riding along.
  std::vector<std::vector<char>> buffers(32);
  std::vector<PageFetchRequest> requests(32);
  for (uint64_t p = 0; p < 32; ++p) {
    buffers[p].resize(store_->page_bytes());
    requests[p] = PageFetchRequest{p, buffers[p].data(), p, 0};
  }
  ASSERT_TRUE((*scheduler)->Submit(requests.data(), requests.size()).ok());

  size_t completed = 0;
  PageFetchCompletion done[8];
  while (completed < 32) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    size_t n;
    while ((n = (*scheduler)->Drain(0, done, 8)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(done[i].status.ok());
        std::vector<Tuple> tuples(16);
        auto count =
            store_->DecodePage(buffers[done[i].user_data].data(),
                               tuples.data());
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(tuples[0].key, done[i].user_data);
      }
      completed += n;
    }
  }
  const auto stats = (*scheduler)->stats();
  EXPECT_EQ(stats.pages_read, 32u);
  EXPECT_EQ(stats.io_batches, 4u);
  EXPECT_EQ(stats.coalesced_pages, 28u);
}

TEST_P(IoSchedulerTest, EnforcesQueueDepthCap) {
  Open(/*per_page=*/8, /*num_pages=*/40);
  IoSchedulerOptions options;
  options.backend = GetParam();
  options.queue_depth = 2;
  options.batch_pages = 1;  // every page its own read
  auto scheduler =
      IoScheduler::Create(store_->fd(), store_->page_bytes(),
                          store_->io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::vector<char>> buffers(40);
  std::vector<PageFetchRequest> requests(40);
  for (uint64_t p = 0; p < 40; ++p) {
    buffers[p].resize(store_->page_bytes());
    requests[p] = PageFetchRequest{p, buffers[p].data(), p, 0};
  }
  ASSERT_TRUE((*scheduler)->Submit(requests.data(), requests.size()).ok());
  size_t completed = 0;
  PageFetchCompletion done[8];
  while (completed < 40) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    completed += (*scheduler)->Drain(0, done, 8);
  }
  EXPECT_LE((*scheduler)->stats().peak_inflight_reads, 2u);
  EXPECT_GT((*scheduler)->stats().mean_queue_depth, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, IoSchedulerTest,
                         testing::ValuesIn(AvailableBackends()),
                         BackendName);

TEST(IoSchedulerTest, RoutesCompletionsToTheirQueues) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  FillStore(store, 8, 8);

  IoSchedulerOptions options;
  options.backend = IoBackendKind::kThreadpool;
  options.completion_queues = 2;
  options.batch_pages = 1;
  auto scheduler = IoScheduler::Create(store.fd(), store.page_bytes(),
                                       store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::vector<char>> buffers(8);
  std::vector<PageFetchRequest> requests(8);
  for (uint64_t p = 0; p < 8; ++p) {
    buffers[p].resize(store.page_bytes());
    requests[p] =
        PageFetchRequest{p, buffers[p].data(), p,
                         static_cast<uint32_t>(p % 2)};  // odd -> queue 1
  }
  ASSERT_TRUE((*scheduler)->Submit(requests.data(), requests.size()).ok());

  size_t completed = 0;
  std::set<uint64_t> q0, q1;
  PageFetchCompletion done[8];
  while (completed < 8) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    size_t n = (*scheduler)->Drain(0, done, 8);
    for (size_t i = 0; i < n; ++i) q0.insert(done[i].user_data);
    completed += n;
    n = (*scheduler)->Drain(1, done, 8);
    for (size_t i = 0; i < n; ++i) q1.insert(done[i].user_data);
    completed += n;
  }
  for (const uint64_t p : q0) EXPECT_EQ(p % 2, 0u);
  for (const uint64_t p : q1) EXPECT_EQ(p % 2, 1u);
  EXPECT_EQ(q0.size() + q1.size(), 8u);
}

TEST(IoSchedulerTest, RejectsOutOfRangeQueue) {
  PageStoreOptions store_options;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  IoSchedulerOptions options;
  options.backend = IoBackendKind::kThreadpool;
  auto scheduler = IoScheduler::Create(store.fd(), store.page_bytes(),
                                       store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());
  char buffer[8];
  PageFetchRequest bad{0, buffer, 0, /*queue=*/5};
  EXPECT_EQ((*scheduler)->Submit(&bad, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(IoSchedulerOptionsTest, ValidateRejectsIllegalKnobs) {
  IoSchedulerOptions options;
  options.queue_depth = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.batch_pages = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.batch_pages = io::kMaxIovPerRead + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.completion_queues = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(IoSchedulerOptions{}.Validate().ok());
}

// ---------------------------------------------------- fault injection

using io::FlakyBackend;  // shared injection backend (flaky_backend.h)

TEST(IoFaultInjectionTest, SchedulerSurfacesInjectedErrors) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  FillStore(store, 12, 8);

  IoSchedulerOptions options;
  options.batch_pages = 1;
  auto scheduler = IoScheduler::CreateWithBackend(
      std::make_unique<FlakyBackend>(8, /*failure_period=*/3), store.fd(),
      store.page_bytes(), store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::vector<char>> buffers(12);
  std::vector<PageFetchRequest> requests(12);
  for (uint64_t p = 0; p < 12; ++p) {
    buffers[p].resize(store.page_bytes());
    requests[p] = PageFetchRequest{p, buffers[p].data(), p, 0};
  }
  ASSERT_TRUE((*scheduler)->Submit(requests.data(), requests.size()).ok());
  size_t completed = 0, failed = 0;
  PageFetchCompletion done[8];
  while (completed < 12) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    const size_t n = (*scheduler)->Drain(0, done, 8);
    for (size_t i = 0; i < n; ++i) {
      if (!done[i].status.ok()) ++failed;
    }
    completed += n;
  }
  EXPECT_EQ(failed, 4u);  // every 3rd of 12
}

TEST(IoFaultInjectionTest, TransientFailuresAreRetriedNotSurfaced) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  FillStore(store, 12, 8);

  // The first three reads come back kUnavailable (EINTR/EAGAIN-class);
  // the scheduler's bounded backoff must absorb them invisibly.
  FlakyBackend::Options flaky;
  flaky.fail_once_reads = 3;
  flaky.failure_code = StatusCode::kUnavailable;
  IoSchedulerOptions options;
  options.batch_pages = 1;
  options.retry_backoff_us = 1;
  auto scheduler = IoScheduler::CreateWithBackend(
      std::make_unique<FlakyBackend>(8, flaky), store.fd(),
      store.page_bytes(), store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::vector<char>> buffers(12);
  std::vector<PageFetchRequest> requests(12);
  for (uint64_t p = 0; p < 12; ++p) {
    buffers[p].resize(store.page_bytes());
    requests[p] = PageFetchRequest{p, buffers[p].data(), p, 0};
  }
  ASSERT_TRUE((*scheduler)->Submit(requests.data(), requests.size()).ok());
  size_t completed = 0;
  PageFetchCompletion done[8];
  while (completed < 12) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    const size_t n = (*scheduler)->Drain(0, done, 8);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(done[i].status.ok()) << done[i].status.ToString();
    }
    completed += n;
  }
  EXPECT_GE((*scheduler)->stats().retries, 3u);
  EXPECT_EQ((*scheduler)->stats().pages_read, 12u);
}

TEST(IoFaultInjectionTest, RetryBudgetExhaustionSurfacesTransientError) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  FillStore(store, 1, 8);

  FlakyBackend::Options flaky;
  flaky.fail_once_reads = 1000;  // never recovers
  flaky.failure_code = StatusCode::kUnavailable;
  IoSchedulerOptions options;
  options.batch_pages = 1;
  options.max_retries = 2;
  options.retry_backoff_us = 1;
  auto scheduler = IoScheduler::CreateWithBackend(
      std::make_unique<FlakyBackend>(8, flaky), store.fd(),
      store.page_bytes(), store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<char> buffer(store.page_bytes());
  PageFetchRequest request{0, buffer.data(), 7, 0};
  ASSERT_TRUE((*scheduler)->Submit(&request, 1).ok());
  PageFetchCompletion done[4];
  size_t n = 0;
  while (n == 0) {
    ASSERT_TRUE((*scheduler)->Pump(/*block=*/true).ok());
    n = (*scheduler)->Drain(0, done, 4);
  }
  ASSERT_EQ(n, 1u);
  // The retry budget preserves the transient code so callers can tell
  // a saturated device from a dying one.
  EXPECT_EQ(done[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ((*scheduler)->stats().retries, 2u);
}

TEST(IoFaultInjectionTest, PipelineFailsTheQueryNotTheProcess) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());
  constexpr uint64_t kPages = 30;
  PageIndex index;
  for (uint64_t p = 0; p < kPages; ++p) {
    std::vector<Tuple> tuples(8, Tuple{p, p});
    auto id = store.WritePage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    index.Add(PageIndexEntry{p, 0, *id, 8});
  }
  index.Finalize();

  IoSchedulerOptions options;
  options.batch_pages = 2;
  options.completion_queues = 2;
  auto scheduler = IoScheduler::CreateWithBackend(
      std::make_unique<FlakyBackend>(8, /*failure_period=*/5), store.fd(),
      store.page_bytes(), store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());
  bufferpool::BufferPoolOptions pool_options;
  pool_options.frames = 8;
  auto pool = bufferpool::BufferPool::Create(&store, scheduler->get(),
                                             pool_options);
  ASSERT_TRUE(pool.ok());

  constexpr uint32_t kConsumers = 2;
  StagingPipeline pipeline(store, index, /*capacity_pages=*/4, kConsumers,
                           pool->get());
  pipeline.Start();

  // Every consumer sees a nullptr frame at some position and drains the
  // rest; the pipeline records the first injected error.
  std::vector<std::thread> consumers;
  std::atomic<uint32_t> saw_error{0};
  for (uint32_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (size_t pos = 0; pos < kPages; ++pos) {
        const auto* frame = pipeline.Acquire(pos);
        if (frame == nullptr) {
          ++saw_error;
          break;
        }
        pipeline.Release(pos);
      }
    });
  }
  for (auto& consumer : consumers) consumer.join();
  EXPECT_GT(saw_error.load(), 0u);
  EXPECT_FALSE(pipeline.status().ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kIoError);
}

TEST(IoFaultInjectionTest, WriteFaultsSurfaceThroughFlush) {
  PageStoreOptions store_options;
  store_options.tuples_per_page = 8;
  PageStore store(store_options);
  ASSERT_TRUE(store.Open().ok());

  IoSchedulerOptions options;
  options.batch_pages = 1;  // one write per batch: failures are per page
  options.completion_queues = 2;
  auto scheduler = IoScheduler::CreateWithBackend(
      std::make_unique<FlakyBackend>(8, /*failure_period=*/1000000,
                                     /*write_failure_period=*/3),
      store.fd(), store.page_bytes(), store.io_delay_us(), options);
  ASSERT_TRUE(scheduler.ok());
  bufferpool::BufferPoolOptions pool_options;
  pool_options.frames = 4;
  pool_options.flush_batch_pages = 1;
  auto pool = bufferpool::BufferPool::Create(&store, scheduler->get(),
                                             pool_options);
  ASSERT_TRUE(pool.ok());

  // Append more pages than frames so write-back (and frame reuse under
  // failed flushes) is forced; the injected EIO must surface as Status
  // through FlushAll/Close, with no frame lost or stuck dirty.
  std::vector<Tuple> tuples(8, Tuple{1, 1});
  for (int p = 0; p < 12; ++p) {
    auto id = (*pool)->AppendPage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  const Status flushed = (*pool)->FlushAll();
  EXPECT_FALSE(flushed.ok());
  EXPECT_EQ(flushed.code(), StatusCode::kIoError);
  // Close terminates cleanly even with the latched error: every frame
  // was retired exactly once (a lost frame would wedge this call).
  EXPECT_EQ((*pool)->Close().code(), StatusCode::kIoError);
}

// ---------------------------------------------- d-mpsm engine sweep

// D-MPSM derives its engine from the store: the threadpool case runs
// a synthetic device delay, the uring case the page cache. It walks the
// page index statically; `scheduler` names that walk in each case's
// `<backend>_static` name.
struct SweepCase {
  IoBackendKind backend;
  SchedulerKind scheduler = SchedulerKind::kStatic;
};

std::string SweepName(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(IoBackendKindName(info.param.backend)) + "_" +
         SchedulerKindName(info.param.scheduler);
}

class DMpsmIoSweepTest : public testing::TestWithParam<SweepCase> {};

TEST_P(DMpsmIoSweepTest, MatchesReferenceWithSaneIoStats) {
  const IoBackendKind backend = GetParam().backend;
  if (backend == IoBackendKind::kUring && !io::UringSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 2.0;
  spec.key_domain = 18000;
  spec.seed = 53;
  const uint32_t team_size = 4;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  disk::DMpsmOptions options;
  options.tuples_per_page = 64;
  options.pool_budget_bytes = 16 * disk::PageStore::PageBytes(64);
  if (backend == IoBackendKind::kThreadpool) options.io_delay_us = 1;
  CountFactory counts(team_size);
  disk::DMpsmReport report;
  auto info = disk::DMpsmJoin(options).Execute(team, dataset.r, dataset.s,
                                               counts, &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);

  // Every index position is pinned exactly once; a pin is either a
  // device read through the scheduler or a buffer-pool hit on a frame
  // still resident from spooling. Plus the private windows' run pages
  // (bounded by what was spooled — a window stops submitting when the
  // walk ends early).
  EXPECT_GE(report.io_sched.pages_read + report.pool.hits,
            report.index_entries);
  EXPECT_LE(report.io_sched.pages_read, report.io.pages_written);
  EXPECT_GT(report.io_sched.io_batches, 0u);
  EXPECT_LE(report.io_sched.peak_inflight_reads, disk::kIoQueueDepth);
  EXPECT_GT(report.io_sched.mean_queue_depth, 0.0);
  EXPECT_EQ(report.io_backend_used, backend);
  EXPECT_LE(report.peak_pool_pages,
            options.PoolShape(team_size).staging_capacity);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DMpsmIoSweepTest,
                         testing::Values(SweepCase{IoBackendKind::kThreadpool},
                                         SweepCase{IoBackendKind::kUring}),
                         SweepName);

TEST(DMpsmIoOptionsTest, ValidateRejectsBadIoKnobs) {
  const auto topology = numa::Topology::Simulated(2, 4);
  WorkerTeam team(topology, 4);
  workload::DatasetSpec spec;
  spec.r_tuples = 200;
  const auto dataset = workload::Generate(topology, 4, spec);

  // Where the spill's pages and manifest go: a spool directory, and
  // both files' paths of a journal.
  disk::DMpsmOptions no_directory;
  no_directory.directory = "";
  recovery::QueryJournal no_manifest;
  no_manifest.spool_path = "/tmp/unused.pages";
  recovery::QueryJournal no_spool;
  no_spool.journal_path = "/tmp/unused.jnl";
  const struct {
    disk::DMpsmOptions options;
    const recovery::QueryJournal* journal;
  } cases[] = {{no_directory, nullptr},
               {disk::DMpsmOptions{}, &no_manifest},
               {disk::DMpsmOptions{}, &no_spool}};
  for (const auto& c : cases) {
    CountFactory counts(4);
    auto info = disk::DMpsmJoin(c.options).Execute(
        team, dataset.r, dataset.s, counts, nullptr, c.journal);
    EXPECT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace mpsm

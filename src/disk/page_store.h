// Temp-file backed page store for spooled runs (D-MPSM, §3.1).
//
// HyPer-style main-memory systems spool large intermediate results to
// disk to preserve RAM for the transactional working set. The store
// keeps fixed-size pages of tuples in an unlinked temporary file;
// workers append pages concurrently (atomic page allocation + pwrite at
// disjoint offsets) and read them back with pread. An optional
// synthetic per-page I/O delay models a disk; the development machine's
// page cache would otherwise hide all latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "storage/tuple.h"
#include "util/status.h"

namespace mpsm::disk {

/// Identifies a page within a PageStore.
using PageId = uint64_t;

/// Configuration of a page store.
struct PageStoreOptions {
  /// Page payload size in tuples.
  size_t tuples_per_page = 4096;
  /// Directory for the backing temp file.
  std::string directory = "/tmp";
  /// Synthetic I/O latency per page read/write, microseconds (0 = off).
  uint32_t io_delay_us = 0;
  /// Persistent mode: back the store with this *named* file (created if
  /// absent, reopened if present — never unlinked by the store), so
  /// spooled runs survive a process crash and a restarted query can
  /// re-attach them (docs/recovery.md). Empty = the default anonymous
  /// mkstemp+unlink temp file that vanishes with the process.
  std::string persist_path;
};

/// I/O statistics (reads/writes are page-granular).
struct IoStats {
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
};

/// Concurrent append/read page store.
class PageStore {
 public:
  explicit PageStore(PageStoreOptions options = {});
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Creates (or, in persistent mode, creates-or-reopens) the backing
  /// file. Must be called before any I/O.
  Status Open();

  /// Persistent mode only: marks the first `pages` page ids as already
  /// allocated (they hold durable data from a previous incarnation of
  /// this spool file). Call after Open, before any allocation.
  Status AdoptPages(uint64_t pages);

  /// Deletes the persistent backing file (successful completion: the
  /// durable spool is no longer needed). No-op in anonymous mode.
  void RemovePersistent();

  /// The named backing file, empty in anonymous mode.
  const std::string& persist_path() const { return options_.persist_path; }

  /// Appends one page holding `count` <= tuples_per_page tuples.
  /// Thread-safe. Returns the new page's id.
  Result<PageId> WritePage(const Tuple* data, size_t count);

  /// Reserves the next page id without touching the device (the buffer
  /// pool's write-back path: the frame is encoded in RAM and flushed
  /// asynchronously). Thread-safe. Counts toward
  /// io_stats().pages_written — it is one logically spooled page,
  /// whichever path carries it to the device.
  PageId AllocatePage();

  /// Encodes `count` <= tuples_per_page tuples into `dest` (exactly
  /// page_bytes() bytes) in the on-disk layout; the tail is zeroed.
  void EncodePage(const Tuple* data, size_t count, char* dest) const;

  /// Reads page `id` into `out` (capacity >= tuples_per_page).
  /// Thread-safe. Returns the tuple count stored on the page.
  Result<size_t> ReadPage(PageId id, Tuple* out) const;

  /// Checks the header of one raw on-disk page (page_bytes() bytes,
  /// e.g. a pinned buffer-pool frame) and returns its tuples in place,
  /// valid as long as `raw` is. A corrupt header is an Internal error;
  /// success counts toward io_stats().pages_read.
  Result<std::span<const Tuple>> ViewPage(const char* raw) const;

  /// Copies one raw page's tuples (ViewPage) into `out`, returning the
  /// tuple count.
  Result<size_t> DecodePage(const char* raw, Tuple* out) const;

  /// File descriptor of the backing spool file (async reads submit
  /// preadv against it); -1 before Open().
  int fd() const { return fd_; }

  /// Byte offset of page `id` in the backing file.
  uint64_t OffsetOfPage(PageId id) const { return id * page_bytes(); }

  /// Synthetic per-page device latency (forwarded to the software I/O
  /// backends; see PageStoreOptions::io_delay_us).
  uint32_t io_delay_us() const { return options_.io_delay_us; }

  size_t tuples_per_page() const { return options_.tuples_per_page; }
  size_t page_bytes() const { return PageBytes(options_.tuples_per_page); }
  /// Bytes of one page of `tuples_per_page` tuples: the tuples plus an
  /// 8-byte header.
  static size_t PageBytes(size_t tuples_per_page) {
    return tuples_per_page * sizeof(Tuple) + sizeof(uint64_t);
  }
  uint64_t num_pages() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  /// Cumulative I/O counters.
  IoStats io_stats() const;

 private:
  PageStoreOptions options_;
  int fd_ = -1;
  std::atomic<uint64_t> next_page_{0};
  mutable std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
};

}  // namespace mpsm::disk

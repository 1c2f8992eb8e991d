#include "disk/page_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

namespace mpsm::disk {

PageStore::PageStore(PageStoreOptions options)
    : options_(std::move(options)) {}

PageStore::~PageStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status PageStore::Open() {
  if (!options_.persist_path.empty()) {
    // Persistent mode: a named file that survives the process, so a
    // restarted query can re-attach durable spooled runs. Never
    // unlinked here — RemovePersistent() deletes it once the recovery
    // manifest is retired.
    fd_ = ::open(options_.persist_path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
      return Status::IoError(std::string("open ") + options_.persist_path +
                             ": " + std::strerror(errno));
    }
    return Status::OK();
  }
  std::string path = options_.directory + "/mpsm_spool_XXXXXX";
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  fd_ = ::mkstemp(buf.data());
  if (fd_ < 0) {
    return Status::IoError(std::string("mkstemp: ") + std::strerror(errno));
  }
  // Unlink immediately: the file vanishes when the store closes.
  ::unlink(buf.data());
  return Status::OK();
}

Status PageStore::AdoptPages(uint64_t pages) {
  if (options_.persist_path.empty()) {
    return Status::InvalidArgument(
        "AdoptPages requires a persistent page store");
  }
  uint64_t expected = 0;
  if (!next_page_.compare_exchange_strong(expected, pages,
                                          std::memory_order_relaxed)) {
    return Status::Internal("AdoptPages after allocation started");
  }
  return Status::OK();
}

void PageStore::RemovePersistent() {
  if (!options_.persist_path.empty()) {
    ::unlink(options_.persist_path.c_str());
  }
}

PageId PageStore::AllocatePage() {
  pages_written_.fetch_add(1, std::memory_order_relaxed);
  return next_page_.fetch_add(1, std::memory_order_relaxed);
}

void PageStore::EncodePage(const Tuple* data, size_t count,
                           char* dest) const {
  // On-disk layout: [count: u64][tuples...][zero tail].
  const uint64_t count64 = count;
  std::memcpy(dest, &count64, sizeof(count64));
  std::memcpy(dest + sizeof(count64), data, count * sizeof(Tuple));
  const size_t used = sizeof(count64) + count * sizeof(Tuple);
  std::memset(dest + used, 0, page_bytes() - used);
}

Result<PageId> PageStore::WritePage(const Tuple* data, size_t count) {
  if (fd_ < 0) return Status::Internal("page store not open");
  if (count > options_.tuples_per_page) {
    return Status::InvalidArgument("page overflow");
  }
  const PageId id = next_page_.fetch_add(1, std::memory_order_relaxed);

  std::vector<char> page(page_bytes());
  EncodePage(data, count, page.data());

  // Resume partial writes (signals, quota boundaries) instead of
  // failing the query on a legal short pwrite.
  size_t done = 0;
  while (done < page.size()) {
    const ssize_t written =
        ::pwrite(fd_, page.data() + done, page.size() - done,
                 static_cast<off_t>(OffsetOfPage(id) + done));
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") +
                             std::strerror(errno));
    }
    if (written == 0) {
      return Status::IoError("pwrite: no progress (disk full?)");
    }
    done += static_cast<size_t>(written);
  }
  pages_written_.fetch_add(1, std::memory_order_relaxed);
  if (options_.io_delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.io_delay_us));
  }
  return id;
}

Result<size_t> PageStore::ReadPage(PageId id, Tuple* out) const {
  if (fd_ < 0) return Status::Internal("page store not open");
  if (id >= next_page_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("page id out of range");
  }
  std::vector<char> page(page_bytes());
  size_t done = 0;
  while (done < page.size()) {
    const ssize_t bytes =
        ::pread(fd_, page.data() + done, page.size() - done,
                static_cast<off_t>(OffsetOfPage(id) + done));
    if (bytes < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (bytes == 0) {
      // A fully written page can never hit EOF mid-range.
      return Status::IoError("pread: unexpected EOF (short read)");
    }
    done += static_cast<size_t>(bytes);
  }
  if (options_.io_delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.io_delay_us));
  }
  return DecodePage(page.data(), out);
}

Result<std::span<const Tuple>> PageStore::ViewPage(const char* raw) const {
  uint64_t count = 0;
  std::memcpy(&count, raw, sizeof(count));
  if (count > options_.tuples_per_page) {
    return Status::Internal("corrupt page header");
  }
  pages_read_.fetch_add(1, std::memory_order_relaxed);
  // The header keeps the tuples as aligned as the page (pool frames
  // are 64-byte aligned).
  static_assert(alignof(Tuple) <= sizeof(count));
  return std::span<const Tuple>(
      reinterpret_cast<const Tuple*>(raw + sizeof(count)), count);
}

Result<size_t> PageStore::DecodePage(const char* raw, Tuple* out) const {
  MPSM_ASSIGN_OR_RETURN(const auto tuples, ViewPage(raw));
  std::memcpy(out, tuples.data(), tuples.size_bytes());
  return tuples.size();
}

IoStats PageStore::io_stats() const {
  IoStats stats;
  stats.pages_written = pages_written_.load(std::memory_order_relaxed);
  stats.pages_read = pages_read_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mpsm::disk

// Node-tagged bump-pointer memory arenas.
//
// Every run / partition array in MPSM lives in exactly one NUMA node's
// memory. The Arena makes that ownership explicit: allocations are
// tagged with the arena's home node so algorithms (and the machine
// model) can classify each access as local or remote. Allocation
// touches no page: Linux places a page on the node of the thread that
// first writes it. Reset() keeps an arena's blocks across queries, so
// the session team's arenas (parallel/worker_team.h) keep their pages
// faulted in, on the nodes of their first writes, for later queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "numa/topology.h"

namespace mpsm::numa {

/// A bump-pointer arena whose memory logically belongs to one NUMA node.
///
/// Allocation is O(1); Reset() rewinds for reuse, Release() (or the
/// destructor) returns the memory. Thread-compatible: concurrent calls
/// must be externally synchronized (in MPSM each worker owns its
/// arenas, so there is no sharing in the hot path — commandment C3).
class Arena {
 public:
  /// Creates an arena homed on `node`. `block_bytes` is the granularity
  /// of the underlying allocations.
  explicit Arena(NodeId node, size_t block_bytes = size_t{8} << 20);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// Allocates `count` default-constructible objects of type T, aligned
  /// to 64 bytes (cache line). The objects are NOT constructed; T must
  /// be trivially constructible/destructible (tuples, integers).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(AllocateBytes(count * sizeof(T), 64));
  }

  /// Raw aligned allocation of `bytes` bytes. When the current block is
  /// full it moves on to the next kept block if that one fits, else
  /// frees the kept blocks not yet reached and adds a new block.
  void* AllocateBytes(size_t bytes, size_t alignment = 64);

  /// Rewinds to the first block for reuse. Keeps the blocks the
  /// allocations since the last Reset reached (their pages stay faulted
  /// in) and frees the rest, so an arena holds at most what its last
  /// use needed. Every pointer handed out before is dead; under ASan
  /// reading one reports use-after-poison. Call only while nothing
  /// allocates from the arena (for team arenas: between
  /// WorkerTeam::Run calls).
  void Reset();

  /// Frees every block.
  void Release();

  /// Home node of this arena's memory.
  NodeId node() const { return node_; }

  /// Bytes handed out since the last Reset.
  size_t bytes_allocated() const { return bytes_allocated_; }

  /// Bytes of the blocks held, kept ones included.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    void* data = nullptr;
    size_t size = 0;
  };

  /// Points the cursor at the next block of at least `min_bytes`.
  void NextBlock(size_t min_bytes);
  /// Frees blocks_[first..].
  void FreeBlocksFrom(size_t first);

  NodeId node_;
  size_t block_bytes_;
  std::vector<Block> blocks_;
  /// Blocks reached since the last Reset; the cursor is in the last.
  size_t blocks_used_ = 0;
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace mpsm::numa

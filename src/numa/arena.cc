#include "numa/arena.h"

#include <algorithm>
#include <cstdlib>

#include "util/bits.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MPSM_POISON(data, size) ASAN_POISON_MEMORY_REGION(data, size)
#define MPSM_UNPOISON(data, size) ASAN_UNPOISON_MEMORY_REGION(data, size)
#else
#define MPSM_POISON(data, size) ((void)(data), (void)(size))
#define MPSM_UNPOISON(data, size) ((void)(data), (void)(size))
#endif

namespace mpsm::numa {

Arena::Arena(NodeId node, size_t block_bytes)
    : node_(node), block_bytes_(block_bytes) {}

Arena::~Arena() { Release(); }

void Arena::Reset() {
  FreeBlocksFrom(blocks_used_);
  // Under ASan only what AllocateBytes hands out is addressable, so a
  // pointer kept across a Reset faults on its next use.
  for (const Block& block : blocks_) MPSM_POISON(block.data, block.size);
  blocks_used_ = 0;
  cursor_ = nullptr;
  end_ = nullptr;
  bytes_allocated_ = 0;
}

void Arena::Release() {
  blocks_used_ = 0;  // nothing reached: Reset frees every block
  Reset();
}

void Arena::FreeBlocksFrom(size_t first) {
  for (size_t i = first; i < blocks_.size(); ++i) {
    bytes_reserved_ -= blocks_[i].size;
    std::free(blocks_[i].data);
  }
  blocks_.resize(first);
}

void Arena::NextBlock(size_t min_bytes) {
  if (blocks_used_ == blocks_.size() ||
      blocks_[blocks_used_].size < min_bytes) {
    // No kept block fits: free the ones not yet reached rather than
    // keep them resident next to the new block.
    FreeBlocksFrom(blocks_used_);
    const size_t size = std::max(block_bytes_, min_bytes);
    void* data = std::aligned_alloc(4096, bits::AlignUp(size, 4096));
    if (data == nullptr) {
      // Allocation failure in the arena is unrecoverable for the join —
      // surface it immediately rather than corrupting state.
      std::abort();
    }
    MPSM_POISON(data, size);
    blocks_.push_back(Block{data, size});
    bytes_reserved_ += size;
  }
  const Block& block = blocks_[blocks_used_++];
  cursor_ = static_cast<char*>(block.data);
  end_ = cursor_ + block.size;
}

void* Arena::AllocateBytes(size_t bytes, size_t alignment) {
  uintptr_t aligned =
      bits::AlignUp(reinterpret_cast<uintptr_t>(cursor_), alignment);
  if (aligned + bytes > reinterpret_cast<uintptr_t>(end_)) {
    NextBlock(bytes + alignment);
    aligned = bits::AlignUp(reinterpret_cast<uintptr_t>(cursor_), alignment);
  }
  char* out = reinterpret_cast<char*>(aligned);
  cursor_ = out + bytes;
  bytes_allocated_ += bytes;
  MPSM_UNPOISON(out, bytes);
  return out;
}

}  // namespace mpsm::numa

#include "partition/key_normalizer.h"

#include <cassert>

namespace mpsm {

KeyNormalizer::KeyNormalizer(uint64_t min_key, uint64_t max_key,
                             uint32_t bits)
    : min_key_(min_key), max_key_(max_key), bits_(bits) {
  assert(min_key <= max_key);
  assert(bits >= 1 && bits <= 32);
  num_clusters_ = uint32_t{1} << bits;
  const uint64_t range = max_key - min_key;
  const uint32_t range_width = bits::BitWidth(range);  // 0 when min==max
  shift_ = range_width > bits ? range_width - bits : 0;
}

uint64_t KeyNormalizer::ClusterHighKey(uint32_t cluster) const {
  // The top cluster absorbs everything up to max_key. Its largest key
  // may be UINT64_MAX itself, whose successor does not exist.
  const uint64_t last = cluster == num_clusters_ - 1
                            ? max_key_
                            : ClusterLowKey(cluster) +
                                  ((uint64_t{1} << shift_) - 1);
  return last == UINT64_MAX ? last : last + 1;
}

}  // namespace mpsm

#include "core/join_types.h"

#include <string>

#include "util/bits.h"

namespace mpsm {

Status MpsmOptions::Validate(uint32_t team_size) const {
  if (team_size == 0) {
    return Status::InvalidArgument("team_size must be >= 1");
  }
  const uint32_t log_t = bits::Log2Ceil(team_size);
  if (radix_bits != 0 && radix_bits < log_t) {
    return Status::InvalidArgument(
        "radix_bits = " + std::to_string(radix_bits) +
        " cannot express the " + std::to_string(team_size) +
        " partitions of this team (need >= ceil(log2(T)) = " +
        std::to_string(log_t) + ", or 0 for auto)");
  }
  // 2^B histogram buckets per scatter block: beyond 24 bits the
  // histograms dwarf the data being partitioned.
  if (radix_bits > 24) {
    return Status::InvalidArgument("radix_bits must be <= 24");
  }
  return Status::OK();
}

}  // namespace mpsm

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
  if (equi_height_factor == 0) {
    return Status::InvalidArgument(
        "equi_height_factor must be >= 1 (f*T CDF bounds per worker)");
  }
  if (morsel_tuples == 0) {
    return Status::InvalidArgument(
        "morsel_tuples must be >= 1 (tuples per stealable morsel)");
  }
  return Status::OK();
}

}  // namespace mpsm

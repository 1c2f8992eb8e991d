#include "parallel/barrier.h"

namespace mpsm {

Barrier::Barrier(uint32_t participants) : participants_(participants) {}

bool Barrier::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t my_generation = generation_;
  if (++arrived_ == participants_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return true;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
  return false;
}

}  // namespace mpsm

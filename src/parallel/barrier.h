// Reusable thread barrier.
//
// MPSM needs exactly one mandatory synchronization point (all public
// runs sorted before the join phase starts); the phase-instrumented
// drivers add barriers between phases so that per-phase times are well
// defined, matching how the paper reports phase breakdowns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace mpsm {

/// A generation-counting barrier for a fixed number of participants.
///
/// Blocking (condvar-based) rather than spinning: the development
/// machine oversubscribes cores, and a spinning barrier would serialize
/// the team. Reusable across any number of Wait rounds.
class Barrier {
 public:
  explicit Barrier(uint32_t participants);

  /// Blocks until all participants have arrived. Returns true for
  /// exactly one participant per round (the "serial" thread), which is
  /// convenient for once-per-round work.
  bool Wait();

  /// Number of participants this barrier synchronizes.
  uint32_t participants() const { return participants_; }

 private:
  const uint32_t participants_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace mpsm

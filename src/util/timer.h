// Wall-clock timing helpers for phase instrumentation and benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace mpsm {

/// Monotonic wall-clock stopwatch with microsecond resolution.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mpsm

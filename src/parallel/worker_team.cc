#include "parallel/worker_team.h"

#include <chrono>
#include <thread>

#include "numa/affinity.h"

namespace mpsm {

namespace {
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

PhaseScope::PhaseScope(WorkerContext& ctx, JoinPhase phase)
    : ctx_(ctx), phase_(phase), start_seconds_(NowSeconds()) {}

PhaseScope::~PhaseScope() {
  ctx_.stats->phase_seconds[phase_] += NowSeconds() - start_seconds_;
}

WorkerTeam::WorkerTeam(const numa::Topology& topology, uint32_t team_size)
    : topology_(&topology),
      team_size_(team_size),
      barrier_(team_size),
      stats_(team_size) {
  arenas_.reserve(team_size);
  for (uint32_t w = 0; w < team_size; ++w) {
    arenas_.push_back(std::make_unique<numa::Arena>(
        topology.NodeForWorker(w, team_size)));
  }
}

WorkerTeam::~WorkerTeam() = default;

void WorkerTeam::Run(const std::function<void(WorkerContext&)>& job) {
  for (auto& stats : stats_) stats = WorkerStats{};

  std::vector<std::thread> threads;
  threads.reserve(team_size_);
  for (uint32_t w = 0; w < team_size_; ++w) {
    threads.emplace_back([this, w, &job] {
      WorkerContext ctx;
      ctx.worker_id = w;
      ctx.team_size = team_size_;
      ctx.core = topology_->CoreForWorker(w, team_size_);
      ctx.node = topology_->NodeOfCore(ctx.core);
      ctx.barrier = &barrier_;
      ctx.stats = &stats_[w];
      ctx.arena = arenas_[w].get();
      ctx.topology = topology_;
      // Pinning is advisory: on the development VM the simulated cores
      // exceed the physical ones and the pin is skipped.
      numa::PinCurrentThreadToCore(ctx.core);
      obs::ScopedTraceThread trace_scope(trace_, "worker", w);
      job(ctx);
    });
  }
  for (auto& thread : threads) thread.join();
}

void WorkerTeam::ReleaseArenas() {
  for (auto& arena : arenas_) arena->Release();
}

uint64_t WorkerTeam::arena_bytes() const {
  uint64_t total = 0;
  for (const auto& arena : arenas_) total += arena->bytes_reserved();
  return total;
}

WorkerStats WorkerTeam::AggregateStats() const {
  WorkerStats total;
  for (const auto& stats : stats_) total += stats;
  return total;
}

double WorkerTeam::CriticalPathSeconds() const {
  double total = 0;
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    double slowest = 0;
    for (const auto& stats : stats_) {
      slowest = std::max(slowest, stats.phase_seconds[p]);
    }
    total += slowest;
  }
  return total;
}

}  // namespace mpsm

#include "parallel/task_scheduler.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace mpsm {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kStatic:
      return "static";
    case SchedulerKind::kStealing:
      return "stealing";
  }
  return "unknown";
}

TaskScheduler::TaskScheduler(const numa::Topology& topology,
                             uint32_t team_size, SchedulerKind kind)
    : topology_(&topology), team_size_(team_size), kind_(kind) {
  const uint32_t num_queues =
      kind == SchedulerKind::kStatic ? team_size : topology.num_nodes();
  queues_.reserve(num_queues);
  for (uint32_t q = 0; q < num_queues; ++q) {
    queues_.push_back(std::make_unique<Queue>());
  }
  if (kind == SchedulerKind::kStealing) {
    const uint32_t nodes = topology.num_nodes();
    steal_order_.resize(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      // Nearest first; equal distances keep node-id order.
      std::vector<std::pair<uint32_t, uint32_t>> by_distance;
      for (uint32_t m = 0; m < nodes; ++m) {
        if (m != n) by_distance.emplace_back(topology.Distance(n, m), m);
      }
      std::sort(by_distance.begin(), by_distance.end());
      for (const auto& [distance, m] : by_distance) {
        steal_order_[n].push_back(m);
      }
    }
  }
}

void TaskScheduler::Reset(std::vector<Morsel> morsels) {
  for (auto& queue : queues_) {
    queue->morsels.clear();
    queue->head.store(0, std::memory_order_relaxed);
  }
  for (const Morsel& morsel : morsels) {
    assert(morsel.home_worker < team_size_);
    const uint32_t q =
        kind_ == SchedulerKind::kStatic
            ? morsel.home_worker
            : topology_->NodeForWorker(morsel.home_worker, team_size_);
    queues_[q]->morsels.push_back(morsel);
  }
}

const Morsel* TaskScheduler::Claim(const WorkerContext& ctx,
                                   PerfCounters& counters) {
  if (kind_ == SchedulerKind::kStatic) {
    Queue& queue = *queues_[ctx.worker_id];
    const size_t h = queue.head.load(std::memory_order_relaxed);
    if (h >= queue.morsels.size()) return nullptr;
    queue.head.store(h + 1, std::memory_order_relaxed);
    ++counters.morsels_executed;
    return &queue.morsels[h];
  }

  const numa::NodeId own = ctx.node;
  const auto claim_from = [&](uint32_t q) -> const Morsel* {
    Queue& queue = *queues_[q];
    // Cheap non-atomic pre-check so drained queues cost no contention.
    if (queue.head.load(std::memory_order_relaxed) >= queue.morsels.size()) {
      return nullptr;
    }
    const size_t h = queue.head.fetch_add(1, std::memory_order_relaxed);
    if (h >= queue.morsels.size()) return nullptr;
    ++counters.sync_acquisitions;  // the claim's atomic acquisition
    ++counters.morsels_executed;
    if (q != own) ++counters.morsels_stolen;
    return &queue.morsels[h];
  };

  if (const Morsel* morsel = claim_from(own)) return morsel;
  for (uint32_t victim : steal_order_[own]) {
    if (const Morsel* morsel = claim_from(victim)) return morsel;
  }
  return nullptr;
}

size_t TaskScheduler::remaining() const {
  size_t total = 0;
  for (const auto& queue : queues_) {
    const size_t h = queue->head.load(std::memory_order_relaxed);
    total += queue->morsels.size() - std::min(h, queue->morsels.size());
  }
  return total;
}

PhasePipeline::PhasePipeline(const numa::Topology& topology,
                             uint32_t team_size, SchedulerKind kind)
    : topology_(&topology), team_size_(team_size), kind_(kind) {}

void PhasePipeline::AddSerial(JoinPhase slot, SerialFn fn) {
  Step step;
  step.slot = slot;
  step.serial = true;
  step.serial_fn = std::move(fn);
  steps_.push_back(std::move(step));
}

void PhasePipeline::AddPhase(JoinPhase slot, MorselFactory factory,
                             MorselBody body, PhaseOptions options) {
  Step step;
  step.slot = slot;
  step.factory = std::move(factory);
  step.body = std::move(body);
  step.options = options;
  step.scheduler = std::make_unique<TaskScheduler>(
      *topology_, team_size_,
      options.pinned ? SchedulerKind::kStatic : kind_);
  steps_.push_back(std::move(step));
}

void PhasePipeline::Run(WorkerTeam& team) {
  // Eager factories see only pre-run inputs: evaluate them up front so
  // their phases need no distribution barrier.
  for (Step& step : steps_) {
    if (!step.serial && step.options.eager) {
      step.scheduler->Reset(step.factory());
    }
  }

  team.Run([&](WorkerContext& ctx) {
    for (size_t s = 0; s < steps_.size(); ++s) {
      Step& step = steps_[s];
      // One span per worker per step, barrier wait included, so the
      // per-thread spans tile the whole pipeline (trace coverage,
      // docs/observability.md). Morsel-batch accounting rides as args.
      obs::TraceSpan phase_span(obs::kCatPhase, JoinPhaseName(step.slot));
      if (step.serial) {
        {
          PhaseScope scope(ctx, step.slot);
          if (ctx.worker_id == 0) step.serial_fn(ctx);
        }
        ctx.barrier->Wait();
        continue;
      }

      if (!step.options.eager) {
        if (ctx.worker_id == 0) step.scheduler->Reset(step.factory());
        ctx.barrier->Wait();
      }
      const PerfCounters& slot_counters = ctx.Counters(step.slot);
      const uint64_t morsels_before = slot_counters.morsels_executed;
      const uint64_t stolen_before = slot_counters.morsels_stolen;

      // Stealing teams yield between morsels: on an oversubscribed
      // machine (dev VMs timeshare the whole team on few cores) a
      // worker would otherwise burn its entire OS quantum claiming
      // morsel after morsel while the rest of the team is descheduled,
      // which serializes the queues and skews the per-worker
      // accounting the machine model maps to parallel time. On real
      // hardware with a core per worker the yield is a no-op. Static
      // lists are insensitive (fixed assignment), matching the paper's
      // yield-free scripts.
      const bool yield_between_morsels =
          step.scheduler->kind() == SchedulerKind::kStealing;
      if (step.options.self_timed) {
        while (const Morsel* morsel =
                   step.scheduler->Claim(ctx, ctx.Counters(step.slot))) {
          step.body(ctx, *morsel);
          if (yield_between_morsels) std::this_thread::yield();
        }
      } else {
        PhaseScope scope(ctx, step.slot);
        while (const Morsel* morsel =
                   step.scheduler->Claim(ctx, ctx.Counters(step.slot))) {
          step.body(ctx, *morsel);
          if (yield_between_morsels) std::this_thread::yield();
        }
      }

      phase_span.arg1("morsels",
                      slot_counters.morsels_executed - morsels_before);
      phase_span.arg2("stolen", slot_counters.morsels_stolen - stolen_before);

      if (s + 1 < steps_.size()) ctx.barrier->Wait();
    }
  });
}

std::vector<Morsel> ChunkMorsels(uint32_t num_chunks) {
  std::vector<Morsel> morsels;
  morsels.reserve(num_chunks);
  for (uint32_t w = 0; w < num_chunks; ++w) {
    morsels.push_back(Morsel{w, w, 0, 0});
  }
  return morsels;
}

std::vector<std::pair<uint64_t, uint64_t>> SliceRanges(uint64_t total,
                                                       uint64_t morsel_size) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  if (morsel_size == 0) morsel_size = 1;
  if (total == 0) {
    ranges.emplace_back(0, 0);
    return ranges;
  }
  for (uint64_t begin = 0; begin < total; begin += morsel_size) {
    // total - begin, not begin + morsel_size: a whole-task slice
    // (MorselSlice) must not overflow.
    ranges.emplace_back(begin, begin + std::min(total - begin, morsel_size));
  }
  return ranges;
}

}  // namespace mpsm

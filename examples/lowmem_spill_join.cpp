// RAM-constrained joining through the engine: give the JoinSpec a
// memory budget and the planner spills via D-MPSM (§3.1) on its own —
// spool both inputs to disk as sorted paged runs, then join while
// keeping only the pages around the current key-domain position
// resident (Figure 4). The buffer pool is sized from the budget and
// fed by the async batched page-I/O subsystem (docs/io.md), on
// io_uring where the kernel accepts it and the threadpool elsewhere.
//
// MPSM_POOL_BUDGET_KB pins the spill path's buffer pool to a fixed
// byte budget (docs/storage.md) — the CI low-memory smoke sets it far
// below the relation size, forcing clock eviction and async write-back
// on every run, and this program then *requires* the pool to have
// evicted and written back (exit 1 otherwise).
//
// HyPer-style systems do this to keep precious RAM for the
// transactional working set while batch queries run alongside.
#include <cstdio>
#include <optional>

#include "core/consumers.h"
#include "disk/page_store.h"
#include "engine/engine.h"
#include "io/io_backend_kind.h"
#include "util/env.h"
#include "workload/generator.h"

int main() {
  using namespace mpsm;

  engine::EngineOptions engine_options;

  // An explicit pool budget overrides the planner's derivation; far
  // smaller than the relation it makes eviction + write-back mandatory.
  const uint64_t pool_budget_kb =
      static_cast<uint64_t>(GetEnvInt("MPSM_POOL_BUDGET_KB", 0));
  engine_options.dmpsm.pool_budget_bytes = pool_budget_kb << 10;
  if (pool_budget_kb != 0) {
    std::printf("pool budget pinned: %llu KB\n",
                static_cast<unsigned long long>(pool_budget_kb));
  }

  engine::Engine engine(engine_options);
  const uint32_t workers = 4;

  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 18;
  spec.multiplicity = 4.0;
  const auto dataset = workload::Generate(engine.topology(), workers, spec);
  const size_t input_bytes =
      (dataset.r.size() + dataset.s.size()) * sizeof(Tuple);

  // Shrinking RAM budgets for the same join. The first fits the whole
  // working set (inputs + runs), so the planner stays in memory; the
  // others force the spill path with ever smaller staging pools. Every
  // budget must produce the same aggregate.
  std::optional<unsigned long long> expected_agg;
  for (const uint64_t budget_mb : {64, 8, 2, 1}) {
    MaxPayloadSumFactory aggregate(workers);
    engine::JoinSpec join;
    join.r = &dataset.r;
    join.s = &dataset.s;
    join.consumers = &aggregate;
    join.memory_budget_bytes = budget_mb << 20;

    auto report = engine.Execute(join);
    if (!report.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }

    const auto agg =
        static_cast<unsigned long long>(aggregate.Result().value_or(0));
    std::printf("budget=%3llu MB -> %-9s agg=%llu  wall=%7.1f ms\n",
                static_cast<unsigned long long>(budget_mb),
                engine::AlgorithmName(report->plan.algorithm), agg,
                report->info.wall_seconds * 1e3);
    if (!expected_agg.has_value()) {
      expected_agg = agg;
    } else if (agg != *expected_agg) {
      std::fprintf(stderr, "aggregate mismatch: %llu vs %llu\n", agg,
                   *expected_agg);
      return 1;
    }
    if (report->dmpsm.has_value()) {
      const auto& d = *report->dmpsm;
      const auto& options = report->plan.dmpsm;
      const size_t pool_bytes =
          d.pool.frames * disk::PageStore::PageBytes(options.tuples_per_page);
      const size_t window_bytes = d.peak_window_tuples * sizeof(Tuple);
      std::printf(
          "               pool budget %.2f MB; io %llu written / %llu "
          "read; resident %.2f MB pool frames + %.2f MB peak window "
          "(inputs %.1f MB)\n",
          options.pool_budget_bytes / 1e6,
          static_cast<unsigned long long>(d.io.pages_written),
          static_cast<unsigned long long>(d.io.pages_read),
          pool_bytes / 1e6, window_bytes / 1e6, input_bytes / 1e6);
      std::printf(
          "               %s: %llu batches (%llu pages coalesced), "
          "mean depth %.1f, stall %.1f ms; pool on %u node%s\n",
          io::IoBackendKindName(d.io_backend_used),
          static_cast<unsigned long long>(d.io_sched.io_batches),
          static_cast<unsigned long long>(d.io_sched.coalesced_pages),
          d.io_sched.mean_queue_depth, d.io_sched.io_stall_ns / 1e6,
          d.pool.pool_nodes, d.pool.pool_nodes == 1 ? "" : "s");
      std::printf(
          "               pool: %zu frames, %llu hit / %llu miss, "
          "%llu evicted, %llu written back, spool stall %.1f ms\n",
          d.pool.frames, static_cast<unsigned long long>(d.pool.hits),
          static_cast<unsigned long long>(d.pool.misses),
          static_cast<unsigned long long>(d.pool.evictions),
          static_cast<unsigned long long>(d.pool.writebacks),
          d.spool_write_stall_ns / 1e6);
      if (pool_budget_kb != 0 &&
          (d.pool.evictions == 0 || d.pool.writebacks == 0)) {
        std::fprintf(stderr,
                     "pinned pool budget did not force eviction "
                     "(%llu) + write-back (%llu)\n",
                     static_cast<unsigned long long>(d.pool.evictions),
                     static_cast<unsigned long long>(d.pool.writebacks));
        return 1;
      }
    }
  }

  std::printf(
      "\nThe spill path joins in the pool's frames, which the budget\n"
      "sizes, plus a small per-worker window of its own run. The budget\n"
      "does not bound all of RAM yet: each worker also sorts its whole\n"
      "chunk in a chunk-sized scratch buffer before spooling it. One\n"
      "engine session served every budget.\n");
  return 0;
}

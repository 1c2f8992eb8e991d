// JoinService: admission control under budget exhaustion, queued-query
// cancellation, shared-sort batching,
// the planner feedback loop, and a randomized concurrent stress sweep
// against the reference join.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "core/public_runs.h"
#include "disk/page_store.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "service/join_service.h"
#include "workload/generator.h"

namespace mpsm::service {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(2, 4); }

constexpr uint32_t kChunks = 4;

workload::Dataset MakeDataset(const numa::Topology& topology, size_t r_tuples,
                              uint64_t seed,
                              double multiplicity = 1.5) {
  workload::DatasetSpec spec;
  spec.r_tuples = r_tuples;
  spec.multiplicity = multiplicity;
  spec.key_domain = 4 * r_tuples;  // duplicates and unmatched keys exist
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = seed;
  return workload::Generate(topology, kChunks, spec);
}

uint64_t Reference(const Relation& r, const Relation& s, JoinKind kind) {
  CountFactory reference(1);
  return baseline::ReferenceJoin(r.ToVector(), s.ToVector(), kind,
                                 reference.ConsumerForWorker(0));
}

/// Counts like CountFactory, but every worker blocks at its first
/// OnMatch until the test opens the gate — the deterministic way to
/// keep a lane busy while the queue behind it builds up.
class GateFactory : public ConsumerFactory {
 public:
  explicit GateFactory(uint32_t team_size) {
    for (uint32_t w = 0; w < team_size; ++w) {
      workers_.push_back(std::make_unique<Consumer>(this));
    }
  }

  JoinConsumer& ConsumerForWorker(uint32_t w) override {
    return *workers_[w];
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  uint64_t Result() const {
    uint64_t total = 0;
    for (const auto& w : workers_) total += w->count;
    return total;
  }

 private:
  class Consumer : public JoinConsumer {
   public:
    explicit Consumer(GateFactory* gate) : gate_(gate) {}
    void OnMatch(const Tuple&, const Tuple*, size_t s_count) override {
      if (!passed_) {
        std::unique_lock<std::mutex> lock(gate_->mu_);
        gate_->cv_.wait(lock, [&] { return gate_->open_; });
        passed_ = true;
      }
      count += s_count;
    }
    uint64_t count = 0;

   private:
    GateFactory* gate_;
    bool passed_ = false;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::unique_ptr<Consumer>> workers_;
};

// --------------------------------------------------------- defaults

TEST(SchedulerDefaultTest, InMemoryVariantsDefaultToStealing) {
  // The work-stealing scheduler is the default phase orchestration
  // since run generation became sliceable below chunk granularity; the
  // paper's static scripts stay available as the A/B knob.
  EXPECT_EQ(MpsmOptions{}.scheduler, SchedulerKind::kStealing);
}

// ------------------------------------------------------- admission

TEST(ServiceAdmissionTest, OverBudgetInnerJoinDownBudgetsToSpill) {
  const auto topology = Topo();
  // Working set = 2 * (|R| + |S|) * 16 ~ 6 MB against a 1 MB budget.
  const auto dataset = MakeDataset(topology, 1u << 16, 11, 2.0);

  ServiceOptions options;
  options.lanes = 2;
  options.memory_budget_bytes = uint64_t{1} << 20;
  JoinService svc(topology, options);

  CountFactory counts(kChunks);
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;

  auto id = svc.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto report = svc.Wait(*id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The governor re-planned the query to spill within the budget
  // instead of admitting an over-budget in-memory run.
  EXPECT_EQ(report->plan.algorithm, engine::Algorithm::kDMpsm);
  EXPECT_EQ(svc.stats().down_budgeted, 1u);
  EXPECT_LE(svc.stats().peak_reserved_bytes, options.memory_budget_bytes);
  EXPECT_EQ(counts.Result(),
            Reference(dataset.r, dataset.s, JoinKind::kInner));
}

TEST(ServiceAdmissionTest, UnbudgetedSpillReservesItsWholePool) {
  // Without a pool budget the spill path allocates the frames of
  // kDefaultPoolBudgetBytes. Admission must reserve exactly those
  // frames.
  const auto topology = Topo();
  constexpr uint32_t kWorkers = 8;
  workload::DatasetSpec data;
  data.r_tuples = 1u << 14;
  data.multiplicity = 1.5;
  data.key_domain = 4 * data.r_tuples;
  data.s_mode = workload::SKeyMode::kIndependent;
  data.seed = 19;
  const auto dataset = workload::Generate(topology, kWorkers, data);

  ServiceOptions options;
  options.lanes = 1;
  options.memory_budget_bytes = uint64_t{1} << 30;
  options.engine.workers = kWorkers;
  JoinService svc(topology, options);

  CountFactory counts(kWorkers);
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;
  spec.algorithm = engine::Algorithm::kDMpsm;
  auto id = svc.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto report = svc.Wait(*id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->dmpsm.has_value());
  EXPECT_EQ(report->plan.dmpsm.pool_budget_bytes, 0u);
  const uint64_t page_bytes =
      disk::PageStore::PageBytes(report->plan.dmpsm.tuples_per_page);
  EXPECT_EQ(svc.stats().peak_reserved_bytes,
            report->dmpsm->pool.frames * page_bytes);
  EXPECT_EQ(counts.Result(),
            Reference(dataset.r, dataset.s, JoinKind::kInner));
}

TEST(ServiceAdmissionTest, UnspillableOverBudgetJoinFailsCleanly) {
  const auto topology = Topo();
  const auto dataset = MakeDataset(topology, 1u << 16, 12, 2.0);

  ServiceOptions options;
  options.lanes = 2;
  options.memory_budget_bytes = uint64_t{1} << 20;
  JoinService svc(topology, options);

  // Outer joins cannot take the D-MPSM spill path, so a working set
  // over the whole budget can never be admitted: the service must
  // answer with a clean ResourceExhausted, not deadlock or OOM.
  CountFactory counts(kChunks);
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = JoinKind::kLeftOuter;
  spec.consumers = &counts;

  auto id = svc.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto report = svc.Wait(*id);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.stats().rejected, 1u);

  // The failure released its (zero) reservation: an in-budget query
  // afterwards still runs.
  CountFactory counts2(kChunks);
  const auto small = MakeDataset(topology, 1u << 12, 13);
  engine::JoinSpec ok_spec;
  ok_spec.r = &small.r;
  ok_spec.s = &small.s;
  ok_spec.consumers = &counts2;
  auto ok_id = svc.Submit(ok_spec);
  ASSERT_TRUE(ok_id.ok());
  auto ok_report = svc.Wait(*ok_id);
  ASSERT_TRUE(ok_report.ok()) << ok_report.status().ToString();
  EXPECT_EQ(counts2.Result(), Reference(small.r, small.s, JoinKind::kInner));
}

TEST(ServiceAdmissionTest, FullQueueRejectsAndCancelRemovesQueuedQuery) {
  const auto topology = Topo();
  // Foreign-key S guarantees matches, so the gate consumer always
  // blocks the lane.
  workload::DatasetSpec dspec;
  dspec.r_tuples = 1u << 12;
  dspec.seed = 21;
  const auto gate_data = workload::Generate(topology, kChunks, dspec);
  const auto queued_data = MakeDataset(topology, 1u << 12, 22);

  ServiceOptions options;
  options.lanes = 1;
  options.max_queue = 1;
  JoinService svc(topology, options);

  GateFactory gate(kChunks);
  engine::JoinSpec gated;
  gated.r = &gate_data.r;
  gated.s = &gate_data.s;
  gated.consumers = &gate;
  auto gated_id = svc.Submit(gated);
  ASSERT_TRUE(gated_id.ok());

  // The single lane is blocked inside the gated query; the next submit
  // occupies the whole queue and the one after bounces.
  CountFactory counts(kChunks);
  engine::JoinSpec queued;
  queued.r = &queued_data.r;
  queued.s = &queued_data.s;
  queued.consumers = &counts;
  // Give the lane a moment to pull the gated query off the queue.
  while (svc.stats().peak_reserved_bytes == 0) std::this_thread::yield();
  auto queued_id = svc.Submit(queued);
  ASSERT_TRUE(queued_id.ok());
  auto bounced = svc.Submit(queued);
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  // Cancelling the queued query frees its slot and fails its Wait with
  // kCancelled; the running query is not cancellable.
  EXPECT_FALSE(svc.Cancel(*gated_id).ok());
  ASSERT_TRUE(svc.Cancel(*queued_id).ok());
  auto cancelled = svc.Wait(*queued_id);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  gate.Open();
  auto gated_report = svc.Wait(*gated_id);
  ASSERT_TRUE(gated_report.ok()) << gated_report.status().ToString();
  EXPECT_EQ(gate.Result(),
            Reference(gate_data.r, gate_data.s, JoinKind::kInner));
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// ------------------------------------------------- shared-sort batch

TEST(ServiceBatchingTest, SharedSortBatchesCompatibleQueries) {
  const auto topology = Topo();
  // One public input, several private inputs: the fact-table pattern
  // shared-sort batching exists for.
  const auto shared = MakeDataset(topology, 1u << 14, 31, 2.0);
  constexpr size_t kClients = 4;
  std::vector<workload::Dataset> privates;
  for (size_t c = 0; c < kClients; ++c) {
    privates.push_back(MakeDataset(topology, 1u << 14, 100 + c));
  }
  workload::DatasetSpec gate_spec;
  gate_spec.r_tuples = 1u << 12;
  gate_spec.seed = 32;
  const auto gate_data = workload::Generate(topology, kChunks, gate_spec);

  ServiceOptions options;
  options.lanes = 1;  // deterministic: the queue builds behind the gate
  options.engine.force_algorithm = engine::Algorithm::kPMpsm;
  JoinService svc(topology, options);

  GateFactory gate(kChunks);
  engine::JoinSpec gated;
  gated.r = &gate_data.r;
  gated.s = &gate_data.s;
  gated.consumers = &gate;
  auto gated_id = svc.Submit(gated);
  ASSERT_TRUE(gated_id.ok());
  while (svc.stats().peak_reserved_bytes == 0) std::this_thread::yield();

  std::vector<std::unique_ptr<CountFactory>> counts;
  std::vector<JoinService::QueryId> ids;
  for (size_t c = 0; c < kClients; ++c) {
    counts.push_back(std::make_unique<CountFactory>(kChunks));
    engine::JoinSpec spec;
    spec.r = &privates[c].r;
    spec.s = &shared.s;  // the same public relation for every client
    spec.consumers = counts.back().get();
    auto id = svc.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  gate.Open();

  for (size_t c = 0; c < kClients; ++c) {
    auto report = svc.Wait(ids[c]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->plan.algorithm, engine::Algorithm::kPMpsm);
    EXPECT_EQ(counts[c]->Result(),
              Reference(privates[c].r, shared.s, JoinKind::kInner));
  }
  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, kClients);
  auto gated_report = svc.Wait(*gated_id);
  ASSERT_TRUE(gated_report.ok());
}

TEST(PublicRunsTest, SharedRunsReproduceTheUnsharedJoin) {
  const auto topology = Topo();
  const auto a = MakeDataset(topology, 1u << 14, 41);
  const auto b = MakeDataset(topology, 1u << 14, 42);

  engine::EngineOptions options;
  options.force_algorithm = engine::Algorithm::kPMpsm;
  engine::Engine engine(topology, options);

  auto runs = BuildPublicRuns(engine.EnsureTeam(kChunks), a.s, options.mpsm);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(runs->runs.size(), kChunks);
  EXPECT_EQ(runs->histograms.size(), kChunks);
  EXPECT_GT(runs->bytes(), 0u);

  for (const Relation* r : {&a.r, &b.r}) {
    CountFactory with_shared(kChunks);
    engine::JoinSpec spec;
    spec.r = r;
    spec.s = &a.s;
    spec.consumers = &with_shared;
    spec.shared_public_runs = &*runs;
    auto shared_report = engine.Execute(spec);
    ASSERT_TRUE(shared_report.ok()) << shared_report.status().ToString();

    CountFactory without(kChunks);
    spec.consumers = &without;
    spec.shared_public_runs = nullptr;
    auto plain_report = engine.Execute(spec);
    ASSERT_TRUE(plain_report.ok());
    EXPECT_EQ(with_shared.Result(), without.Result());
    EXPECT_EQ(with_shared.Result(), Reference(*r, a.s, JoinKind::kInner));
  }
}

TEST(PublicRunsTest, WrongTeamSizeIsRejected) {
  const auto topology = Topo();
  const auto dataset = MakeDataset(topology, 1u << 13, 43);
  engine::EngineOptions options;
  options.force_algorithm = engine::Algorithm::kPMpsm;
  engine::Engine engine(topology, options);

  auto runs = BuildPublicRuns(engine.EnsureTeam(kChunks), dataset.s);
  ASSERT_TRUE(runs.ok());

  engine::EngineOptions two_workers = options;
  two_workers.workers = 2;
  const auto dataset2 = workload::Generate(
      topology, 2, workload::DatasetSpec{.r_tuples = 1u << 13, .seed = 45});
  engine::Engine engine2(topology, two_workers);
  CountFactory counts(2);
  engine::JoinSpec spec;
  spec.r = &dataset2.r;
  spec.s = &dataset2.s;
  spec.consumers = &counts;
  spec.shared_public_runs = &*runs;  // built for 4 workers
  auto report = engine2.Execute(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- planner feedback

TEST(RecalibrationTest, SessionModelDriftsTowardMeasuredCoefficients) {
  const auto topology = Topo();
  const auto dataset = MakeDataset(topology, 1u << 14, 51, 2.0);

  engine::EngineOptions options;
  options.recalibrate = true;
  options.force_algorithm = engine::Algorithm::kPMpsm;
  engine::Engine engine(topology, options);
  const sim::MachineModel before = engine.machine();

  CountFactory counts(kChunks);
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The report carries predicted and measured phase costs side by side.
  EXPECT_GT(report->measured_seconds, 0.0);

  const sim::MachineModel after = engine.machine();
  // The paper's HyPer1 coefficients never match this host exactly, so
  // one observed run must move the session model.
  EXPECT_NE(before.ns_per_sort_unit, after.ns_per_sort_unit);

  // A per-query options override must not steer the session model.
  const sim::MachineModel pinned = engine.machine();
  engine::EngineOptions per_query = options;
  CountFactory counts2(kChunks);
  spec.consumers = &counts2;
  spec.options = &per_query;
  ASSERT_TRUE(engine.Execute(spec).ok());
  EXPECT_EQ(engine.machine().ns_per_sort_unit, pinned.ns_per_sort_unit);
}

// ----------------------------------------------------------- stress

TEST(ServiceStressTest, RandomizedConcurrentSweepMatchesReference) {
  const auto topology = Topo();
  constexpr size_t kQueries = 200;
  constexpr size_t kClientThreads = 4;
  constexpr std::array<JoinKind, 4> kKinds = {
      JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti,
      JoinKind::kLeftOuter};

  // A shared public input for half the queries (exercises batching)
  // and a private dataset per query.
  const auto shared = MakeDataset(topology, 1u << 13, 61, 2.0);
  struct Query {
    workload::Dataset data;
    const Relation* s = nullptr;
    JoinKind kind = JoinKind::kInner;
    uint64_t expected = 0;
    std::unique_ptr<CountFactory> counts;
  };
  std::vector<Query> queries(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t r_tuples = 512u << (q % 4);  // 512 .. 4096
    queries[q].data = MakeDataset(topology, r_tuples, 1000 + q);
    const bool use_shared = q % 2 == 0;
    queries[q].s = use_shared ? &shared.s : &queries[q].data.s;
    // Only inner joins batch against the shared input; vary the kind
    // on the private half.
    queries[q].kind = use_shared ? JoinKind::kInner : kKinds[q % kKinds.size()];
    queries[q].expected =
        Reference(queries[q].data.r, *queries[q].s, queries[q].kind);
    queries[q].counts = std::make_unique<CountFactory>(kChunks);
  }

  ServiceOptions options;
  options.lanes = 3;
  // Tight enough that the governor actually queues work behind it.
  options.memory_budget_bytes = uint64_t{4} << 20;
  JoinService svc(topology, options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t q = t; q < kQueries; q += kClientThreads) {
        engine::JoinSpec spec;
        spec.r = &queries[q].data.r;
        spec.s = queries[q].s;
        spec.kind = queries[q].kind;
        spec.consumers = queries[q].counts.get();
        auto id = svc.Submit(spec);
        if (!id.ok()) {
          ++failures;
          continue;
        }
        auto report = svc.Wait(*id);
        if (!report.ok() ||
            queries[q].counts->Result() != queries[q].expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  svc.Drain();

  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.rejected + stats.failed + stats.cancelled, 0u);
  EXPECT_LE(stats.peak_reserved_bytes, options.memory_budget_bytes);
  // Lanes free their run memory before each reservation returns, so
  // admission's accounting covered all of it.
  EXPECT_EQ(stats.arena_bytes, 0u);
}

}  // namespace
}  // namespace mpsm::service

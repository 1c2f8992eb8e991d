#include "workload/query.h"

namespace mpsm::workload {

const char* AlgorithmName(Algorithm algorithm) {
  if (algorithm == Algorithm::kRadix) return "radix (vw)";
  return engine::AlgorithmName(algorithm);
}

Result<QueryResult> RunBenchmarkQuery(Algorithm algorithm,
                                      engine::Engine& engine,
                                      const Relation& r, const Relation& s,
                                      const MpsmOptions& options) {
  // Per-query knob override: the harness MpsmOptions map onto the
  // engine's canonical knobs for the MPSM variants; the hash baselines
  // keep their own defaults (e.g. the radix join's stealing scheduler).
  engine::EngineOptions query_options = engine.options();
  query_options.force_algorithm.reset();
  const bool mpsm_family = algorithm == Algorithm::kPMpsm ||
                           algorithm == Algorithm::kBMpsm ||
                           algorithm == Algorithm::kDMpsm;
  if (mpsm_family) {
    query_options.scheduler = options.scheduler;
    query_options.sort_config = options.sort_config;
    query_options.scatter = options.scatter;
    query_options.morsel_tuples = options.morsel_tuples;
    query_options.simd = options.simd;
    query_options.mpsm.radix_bits = options.radix_bits;
    query_options.mpsm.equi_height_factor = options.equi_height_factor;
    query_options.mpsm.start_search = options.start_search;
    query_options.mpsm.cost_balanced_splitters =
        options.cost_balanced_splitters;
  }

  engine::JoinSpec spec;
  spec.r = &r;
  spec.s = &s;
  spec.kind = options.kind;
  spec.algorithm = algorithm;
  spec.options = &query_options;

  MaxPayloadSumFactory consumers(engine.TeamSizeFor(spec));
  spec.consumers = &consumers;

  MPSM_ASSIGN_OR_RETURN(engine::JoinReport report, engine.Execute(spec));

  QueryResult result;
  result.max_sum = consumers.Result();
  result.report = std::move(report);
  return result;
}

}  // namespace mpsm::workload

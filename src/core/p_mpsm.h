// P-MPSM: the range-partitioned massively parallel sort-merge join
// (§3.2, §4) — the paper's flagship algorithm.
//
// Phases (Figure 5):
//   1   Sort the public input S into local runs; build equi-height
//       histograms en passant (f*T bounds per run, §4.1).
//   2.1 Merge local histograms into the global CDF of S.
//   2.2 Scan private chunks: key range + B-bit radix histograms (§4.2).
//   2.3 Compute cost-balanced splitters (§4.3, Figure 10). Cut the
//       clusters, in key order, into sort segments: runs of
//       consecutive clusters that never cross a splitter, each closed
//       once it holds max(2^11, |R| / 2^10) tuples, so there are at
//       most min(|R| / 2^11, 2^10) + T of them. Combine the local
//       histograms into prefix sums over segments and scatter the
//       private chunks into them with synchronization-free sequential
//       writes; partition p is its segments, back to back in key order.
//   3   Sort each segment in place by LSD passes over (key - its low
//       key): it fits in cache and its key range is known, so no MSD
//       pass runs. The sorted partition is the private run.
//   4   Merge join: each worker joins its partition against all public
//       runs, locating the start position via interpolation search.
#pragma once

#include "core/consumers.h"
#include "core/join_stats.h"
#include "core/join_types.h"
#include "parallel/worker_team.h"
#include "partition/cdf.h"
#include "partition/key_normalizer.h"
#include "partition/splitters.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm {

struct PublicRuns;

/// Introspection data exposed for tests and the skew-balancing bench.
struct PMpsmDiagnostics {
  KeyNormalizer normalizer;
  Cdf cdf;
  Splitters splitters;
  /// Actual tuples scattered into each partition.
  std::vector<uint64_t> partition_sizes;
  /// The sort segments in key order: segment s starts at radix cluster
  /// segment_first_cluster[s] and holds segment_sizes[s] tuples;
  /// partition p holds segments [first_segment[p], first_segment[p+1]).
  std::vector<uint32_t> segment_first_cluster;
  std::vector<uint64_t> segment_sizes;
  std::vector<uint32_t> first_segment;
};

/// The range-partitioned MPSM join.
class PMpsmJoin {
 public:
  explicit PMpsmJoin(MpsmOptions options = {}) : options_(options) {}

  /// Joins `r_private` with `s_public` on `team`, streaming results to
  /// `consumers`. Both relations must be chunked into team.size()
  /// chunks. `diagnostics` (optional) receives splitter internals.
  /// `shared_public` (optional) supplies pre-sorted runs + histograms
  /// of `s_public` built by BuildPublicRuns on a team of the same
  /// size; phase 1 is then skipped entirely — the shared-sort
  /// amortization of the join service (core/public_runs.h). The caller
  /// keeps it alive and unmodified for the duration.
  Result<JoinRunInfo> Execute(WorkerTeam& team, const Relation& r_private,
                              const Relation& s_public,
                              ConsumerFactory& consumers,
                              PMpsmDiagnostics* diagnostics = nullptr,
                              const PublicRuns* shared_public = nullptr) const;

  const MpsmOptions& options() const { return options_; }

  /// Effective radix bits B for a team of `team_size` (resolves the
  /// options' auto default: max(ceil(log2 T) + 5, 10), capped at 18).
  uint32_t EffectiveRadixBits(uint32_t team_size) const;

 private:
  MpsmOptions options_;
};

}  // namespace mpsm

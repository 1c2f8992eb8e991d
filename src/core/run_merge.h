// Exploiting MPSM's quasi-sorted output (§6 / §7 future work).
//
// MPSM does not produce one global sort order, but each worker's output
// is a short sequence of sorted runs (one per public run scanned, all
// within the worker's key partition, and partitions are ordered by
// key). A cheap T-way merge therefore restores a totally sorted stream
// per partition — enabling sort-based aggregation, merge-group-by and
// order-preserving parents without a full sort. The run cache merges
// delta runs with it (cache/run_cache.h).
//
// The merger is a classic loser tree (tournament tree): O(log k)
// comparisons per produced element for k runs.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/run.h"
#include "storage/tuple.h"

namespace mpsm {

/// k-way merge of sorted tuple runs via a loser tree.
class LoserTreeMerger {
 public:
  /// `runs` must each be key-sorted; empty runs are allowed.
  explicit LoserTreeMerger(std::vector<Run> runs);

  /// True while tuples remain.
  bool HasNext() const { return remaining_ > 0; }

  /// Pops the globally smallest remaining tuple (stable across equal
  /// keys in run order is NOT guaranteed; key order is).
  Tuple Next();

  /// Total tuples left.
  size_t remaining() const { return remaining_; }

 private:
  uint32_t Winner(uint32_t a, uint32_t b) const;
  void Replay(uint32_t run);

  std::vector<Run> runs_;
  std::vector<size_t> cursor_;
  std::vector<uint32_t> tree_;  // internal nodes: losers; tree_[0] winner
  uint32_t k_ = 0;
  size_t remaining_ = 0;
};

/// Merges sorted runs into one sorted vector (convenience).
std::vector<Tuple> MergeRuns(std::vector<Run> runs);

}  // namespace mpsm

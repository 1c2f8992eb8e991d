// Cross-query sorted-run cache with LSM-style delta ingest
// (docs/cache.md).
//
// MPSM's currency is sorted runs, yet a plain engine session re-sorts
// the public input for every query — the wrong amortization when the
// same fact table is joined repeatedly, or keeps growing under ingest.
// RunCache retains the phase-1 products (core/public_runs.h) across
// queries and absorbs new tuples as small sorted *delta runs*, so a
// repeat join executes merge-on-read: the cached base runs plus the
// delta runs are handed to P-MPSM as one shared run view, whose phase 4
// already joins every private run against every public run. Re-sorting
// O(N log N) becomes merging O(delta).
//
// Keying. An entry is identified by (relation id, chunk count). The
// sorted-run *content* is canonical — every sort pass budget / ISA /
// scheduler produces the same bytes — and the histograms carry the
// fixed f*T bounds per run, so nothing else fragments the key.
//
// Versioning. Relation::version() is the content epoch. Ingest bumps
// it and logs a delta segment covering exactly the new version; an
// entry installed at version V plus the contiguous segments covering
// (V, rel.version()] compose a coherent view. Any gap — an external
// BumpVersion() the cache never saw, or an eviction — fails the
// composition and the caller falls back to a fresh sort (the planner's
// stale-run re-validation rides on this).
//
// Ownership. Everything handed out is pinned by shared_ptr: eviction
// and compaction swap map references, never memory under a reader.
// Delta segments are data, not cache — they hold ingested tuples that
// exist nowhere else, so LRU eviction only ever drops base entries.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/public_runs.h"
#include "numa/topology.h"
#include "parallel/worker_team.h"
#include "storage/relation.h"
#include "storage/run.h"
#include "storage/tuple.h"

namespace mpsm::cache {

/// One immutable sorted batch of ingested tuples, covering a closed
/// version range of its relation. Level 0 segments come straight from
/// Ingest; compaction merges contiguous same-level segments into one
/// segment a level up (tiered LSM shape).
struct DeltaSegment {
  std::vector<Tuple> tuples;  // key-sorted
  uint64_t first_version = 0;
  uint64_t last_version = 0;
  uint32_t level = 0;

  uint64_t bytes() const { return tuples.size() * sizeof(Tuple); }
  Run AsRun() const {
    return Run{const_cast<Tuple*>(tuples.data()), tuples.size(), 0};
  }
};

/// A coherent cached view of one relation: base runs + delta runs,
/// usable directly as JoinSpec::shared_public_runs. `view` borrows the
/// tuples; the shared_ptrs pin them for the view's lifetime.
struct CachedView {
  PublicRuns view;  // non-owning (arenas empty)
  std::shared_ptr<const PublicRuns> base;
  std::vector<std::shared_ptr<const DeltaSegment>> deltas;
  uint64_t version = 0;      // relation version the view reflects
  uint64_t delta_tuples = 0;

  bool valid() const { return base != nullptr; }
};

/// Monotonic counters + current residency.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t installs = 0;
  uint64_t evictions = 0;
  /// Entries dropped because the relation's version moved past what the
  /// delta log can reconstruct (external BumpVersion).
  uint64_t stale_invalidations = 0;
  uint64_t ingested_batches = 0;
  uint64_t ingested_tuples = 0;
  uint64_t compactions = 0;
  uint64_t compacted_segments = 0;
  uint64_t base_bytes = 0;   // evictable
  uint64_t delta_bytes = 0;  // not evictable (authoritative data)
};

/// Tiered-compaction fanout: a contiguous stretch of >= this many
/// same-level segments becomes one CompactPending merge job.
inline constexpr uint32_t kDeltaLevelFanout = 4;

struct RunCacheOptions {
  /// Resident-byte capacity (base entries + delta logs). Install evicts
  /// LRU base entries to fit; 0 = unlimited.
  uint64_t capacity_bytes = 0;
};

/// Thread-safe cross-query run cache. One instance is meant to be
/// shared by every engine session of a process (the join service wires
/// one across its lanes).
class RunCache {
 public:
  explicit RunCache(RunCacheOptions options = {});

  // --------------------------------------------------------- ingest
  /// Appends `n` tuples to `rel`'s logical content as one sorted L0
  /// delta segment and bumps rel's version. The base storage is never
  /// touched; joins see the rows via merge-on-read or MaterializedView.
  /// Returns the new relation version (unchanged for an empty batch).
  uint64_t Ingest(Relation& rel, const Tuple* tuples, size_t n);
  uint64_t Ingest(Relation& rel, const std::vector<Tuple>& tuples) {
    return Ingest(rel, tuples.data(), tuples.size());
  }

  // --------------------------------------------------------- lookup
  /// Coherent view for rel at its current version, or an invalid view.
  /// Touches LRU and counts a hit/miss.
  CachedView Lookup(const Relation& rel, uint32_t num_chunks);

  /// Metadata-only probe (no LRU touch, no hit/miss accounting): would
  /// Lookup succeed, and how much delta would the view merge? Feeds
  /// the planner's cached-merge vs fresh-sort pricing.
  struct PeekInfo {
    bool hit = false;
    uint64_t base_tuples = 0;
    uint64_t delta_tuples = 0;
    uint32_t delta_runs = 0;
  };
  PeekInfo Peek(const Relation& rel, uint32_t num_chunks) const;

  /// Installs freshly built runs for relation `relation_id` as of
  /// `covers_version` (capture rel.version() *before* building the
  /// runs — a concurrent Ingest must not be claimed as covered).
  /// Evicts LRU entries to fit; returns false when the entry alone
  /// exceeds capacity and was not retained.
  bool Install(uint64_t relation_id, uint32_t num_chunks,
               uint64_t covers_version,
               std::shared_ptr<const PublicRuns> runs);

  // ------------------------------------------------------ delta state
  /// Total tuples in `rel`'s delta log (rows not in the base storage).
  /// Non-zero means a fresh sort of the base alone would be *wrong*;
  /// use MaterializedView as the input instead.
  uint64_t PendingDeltaTuples(const Relation& rel) const;

  /// The relation's logical content — base storage plus delta log — as
  /// one freshly chunked relation at rel's current version. Memoized
  /// per (relation, chunk count) until the version moves; also the
  /// oracle input for tests. `version_out` (optional) receives the
  /// version the returned content reflects — pass it as Install's
  /// covers_version so a concurrent Ingest is never claimed as covered.
  /// Returns null only if rel has no id.
  std::shared_ptr<const Relation> MaterializedView(
      const Relation& rel, const numa::Topology& topology,
      uint32_t num_chunks, uint64_t* version_out = nullptr);

  // ------------------------------------------------------- compaction
  /// Runs every ready merge job (contiguous stretches of >=
  /// kDeltaLevelFanout same-level segments, never across a live
  /// entry's covered-version boundary). With a team, jobs run as
  /// stealable morsels on the task scheduler — idle service lanes
  /// compact; nullptr merges inline on the caller. Returns the number
  /// of merges performed.
  uint64_t CompactPending(WorkerTeam* team = nullptr);

  // --------------------------------------------------------- eviction
  /// Evicts LRU base entries until resident bytes <= `target_bytes`
  /// (or no evictable entries remain — delta logs and materialized
  /// views pinned by readers stay). Returns bytes released.
  uint64_t EvictToFit(uint64_t target_bytes);

  /// Drops every entry, delta segment, and memoized materialization of
  /// one relation (e.g. the table was dropped or rewritten wholesale).
  void InvalidateRelation(uint64_t relation_id);

  /// Drops everything.
  void Clear();

  // ------------------------------------------------------------ state
  uint64_t resident_bytes() const;
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  CacheStats stats() const;

 private:
  struct Entry {
    uint32_t num_chunks = 0;
    uint64_t covers_version = 0;
    uint64_t bytes = 0;
    uint64_t lru_tick = 0;
    std::shared_ptr<const PublicRuns> runs;
  };
  struct EntryKey {
    uint64_t relation_id = 0;
    uint32_t num_chunks = 0;
    bool operator==(const EntryKey& o) const {
      return relation_id == o.relation_id && num_chunks == o.num_chunks;
    }
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const {
      uint64_t h = k.relation_id * 0x9e3779b97f4a7c15ull;
      h ^= uint64_t{k.num_chunks} + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct DeltaLog {
    /// Ascending, contiguous version ranges.
    std::vector<std::shared_ptr<const DeltaSegment>> segments;
    /// Version after the last Ingest this log saw.
    uint64_t version = 0;
  };
  struct Materialized {
    std::shared_ptr<const Relation> relation;
    uint64_t version = 0;
  };
  /// One ready compaction merge: `sources` are contiguous same-level
  /// segments of `relation_id`.
  struct CompactJob {
    uint64_t relation_id = 0;
    std::vector<std::shared_ptr<const DeltaSegment>> sources;
    std::shared_ptr<DeltaSegment> merged;
  };

  /// Segments of `log` strictly after `covers_version`, iff they cover
  /// (covers_version, target_version] contiguously. Returns false on
  /// any gap or straddle.
  static bool ComposeDeltas(
      const DeltaLog& log, uint64_t covers_version, uint64_t target_version,
      std::vector<std::shared_ptr<const DeltaSegment>>* out);

  void EvictLruLocked();
  std::vector<CompactJob> CollectCompactJobsLocked();
  void CommitCompactJobLocked(CompactJob& job);

  RunCacheOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<EntryKey, Entry, EntryKeyHash> entries_;
  std::unordered_map<uint64_t, DeltaLog> logs_;
  /// Memoized Materialize results, keyed like entries.
  std::unordered_map<EntryKey, Materialized, EntryKeyHash> materialized_;
  uint64_t lru_clock_ = 0;
  uint64_t base_bytes_ = 0;
  uint64_t delta_bytes_ = 0;
  CacheStats stats_;
  bool compacting_ = false;  // single compactor at a time
};

}  // namespace mpsm::cache

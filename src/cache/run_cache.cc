#include "cache/run_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/run_merge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/counters.h"
#include "parallel/task_scheduler.h"
#include "partition/equi_height.h"

namespace mpsm::cache {

namespace {
// The cache outlives queries, so its counters are updated live (unlike
// the per-query pool/scheduler, which fold totals at close).
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_hits_total", "Run-cache lookups served from a cached entry");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_misses_total", "Run-cache lookups that found no usable entry");
  return c;
}
obs::Counter& InstallCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_installs_total", "Sorted-run sets installed into the cache");
  return c;
}
obs::Counter& EvictionCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_evictions_total", "Cache entries evicted or invalidated");
  return c;
}
obs::Counter& IngestCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_ingested_tuples_total", "Tuples ingested as delta segments");
  return c;
}
obs::Counter& CompactionCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_cache_compactions_total", "Delta-log compaction merges committed");
  return c;
}
}  // namespace

RunCache::RunCache(RunCacheOptions options) : options_(options) {}

uint64_t RunCache::Ingest(Relation& rel, const Tuple* tuples, size_t n) {
  if (rel.id() == 0) return 0;
  if (n == 0) return rel.version();

  auto segment = std::make_shared<DeltaSegment>();
  segment->tuples.assign(tuples, tuples + n);
  std::sort(segment->tuples.begin(), segment->tuples.end(),
            [](const Tuple& a, const Tuple& b) { return a.key < b.key; });
  segment->level = 0;

  std::lock_guard<std::mutex> lock(mu_);
  // Bump under the cache lock: the version order and the log's segment
  // order must agree, or ComposeDeltas would see interleaved ranges.
  const uint64_t version = rel.BumpVersion();
  segment->first_version = version;
  segment->last_version = version;
  DeltaLog& log = logs_[rel.id()];
  log.segments.push_back(segment);
  log.version = version;
  delta_bytes_ += segment->bytes();
  ++stats_.ingested_batches;
  stats_.ingested_tuples += n;
  IngestCounter().Add(n);
  obs::TraceInstant(obs::kCatCache, "cache.ingest", "tuples", n, "relation",
                    rel.id());
  // The memoized materialization describes the previous version.
  for (auto it = materialized_.begin(); it != materialized_.end();) {
    if (it->first.relation_id == rel.id()) {
      base_bytes_ -= it->second.relation->size() * sizeof(Tuple);
      it = materialized_.erase(it);
    } else {
      ++it;
    }
  }
  return version;
}

bool RunCache::ComposeDeltas(
    const DeltaLog& log, uint64_t covers_version, uint64_t target_version,
    std::vector<std::shared_ptr<const DeltaSegment>>* out) {
  if (covers_version == target_version) return true;
  if (covers_version > target_version) return false;
  uint64_t expected = covers_version + 1;
  for (const auto& segment : log.segments) {
    if (segment->last_version <= covers_version) continue;
    // A segment straddling the covered boundary would double-count the
    // versions at or below it (a compaction merged across the install
    // point); the entry cannot compose anymore.
    if (segment->first_version != expected) return false;
    if (out != nullptr) out->push_back(segment);
    expected = segment->last_version + 1;
    if (expected > target_version) break;
  }
  return expected == target_version + 1;
}

CachedView RunCache::Lookup(const Relation& rel, uint32_t num_chunks) {
  CachedView out;
  if (rel.id() == 0) return out;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t target = rel.version();
  const EntryKey key{rel.id(), num_chunks};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    MissCounter().Add(1);
    obs::TraceInstant(obs::kCatCache, "cache.miss", "relation", rel.id());
    return out;
  }
  Entry& entry = it->second;
  static const DeltaLog kEmptyLog;
  auto log_it = logs_.find(rel.id());
  const DeltaLog& log = log_it != logs_.end() ? log_it->second : kEmptyLog;
  std::vector<std::shared_ptr<const DeltaSegment>> deltas;
  if (!ComposeDeltas(log, entry.covers_version, target, &deltas)) {
    // Unrecoverable: a version exists that no delta segment covers
    // (external BumpVersion) or compaction crossed the install point.
    base_bytes_ -= entry.bytes;
    entries_.erase(it);
    ++stats_.stale_invalidations;
    ++stats_.misses;
    MissCounter().Add(1);
    obs::TraceInstant(obs::kCatCache, "cache.miss", "relation", rel.id());
    return out;
  }

  entry.lru_tick = ++lru_clock_;
  ++stats_.hits;
  HitCounter().Add(1);
  obs::TraceInstant(obs::kCatCache, "cache.hit", "relation", rel.id());
  out.base = entry.runs;
  out.deltas = std::move(deltas);
  out.version = target;
  out.view.runs = entry.runs->runs;
  out.view.histograms = entry.runs->histograms;
  out.view.team_size = entry.runs->team_size;
  for (const auto& segment : out.deltas) {
    const Run run = segment->AsRun();
    out.view.runs.push_back(run);
    out.view.histograms.push_back(
        BuildEquiHeightHistogram(run, kEquiHeightFactor * num_chunks));
    out.delta_tuples += run.size;
  }
  return out;
}

RunCache::PeekInfo RunCache::Peek(const Relation& rel,
                                  uint32_t num_chunks) const {
  PeekInfo info;
  if (rel.id() == 0) return info;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(EntryKey{rel.id(), num_chunks});
  if (it == entries_.end()) return info;
  static const DeltaLog kEmptyLog;
  const auto log_it = logs_.find(rel.id());
  const DeltaLog& log = log_it != logs_.end() ? log_it->second : kEmptyLog;
  std::vector<std::shared_ptr<const DeltaSegment>> deltas;
  if (!ComposeDeltas(log, it->second.covers_version, rel.version(), &deltas)) {
    return info;
  }
  info.hit = true;
  info.base_tuples = TotalSize(it->second.runs->runs);
  for (const auto& segment : deltas) info.delta_tuples += segment->tuples.size();
  info.delta_runs = static_cast<uint32_t>(deltas.size());
  return info;
}

bool RunCache::Install(uint64_t relation_id, uint32_t num_chunks,
                       uint64_t covers_version,
                       std::shared_ptr<const PublicRuns> runs) {
  if (relation_id == 0 || runs == nullptr) return false;
  const uint64_t bytes = runs->bytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.capacity_bytes != 0 && bytes > options_.capacity_bytes) {
    return false;
  }
  const EntryKey key{relation_id, num_chunks};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    base_bytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  Entry entry;
  entry.num_chunks = num_chunks;
  entry.covers_version = covers_version;
  entry.bytes = bytes;
  entry.lru_tick = ++lru_clock_;
  entry.runs = std::move(runs);
  base_bytes_ += bytes;
  entries_.emplace(key, std::move(entry));
  ++stats_.installs;
  InstallCounter().Add(1);
  obs::TraceInstant(obs::kCatCache, "cache.install", "relation", relation_id,
                    "bytes", bytes);
  while (options_.capacity_bytes != 0 &&
         base_bytes_ + delta_bytes_ > options_.capacity_bytes &&
         entries_.size() > 1) {
    EvictLruLocked();
  }
  return true;
}

uint64_t RunCache::PendingDeltaTuples(const Relation& rel) const {
  if (rel.id() == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = logs_.find(rel.id());
  if (it == logs_.end()) return 0;
  uint64_t total = 0;
  for (const auto& segment : it->second.segments) {
    total += segment->tuples.size();
  }
  return total;
}

std::shared_ptr<const Relation> RunCache::MaterializedView(
    const Relation& rel, const numa::Topology& topology, uint32_t num_chunks,
    uint64_t* version_out) {
  if (rel.id() == 0) return nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = rel.version();
  if (version_out != nullptr) *version_out = target;
  const EntryKey key{rel.id(), num_chunks};
  auto memo = materialized_.find(key);
  if (memo != materialized_.end() && memo->second.version == target) {
    return memo->second.relation;
  }
  std::vector<std::shared_ptr<const DeltaSegment>> segments;
  const auto log_it = logs_.find(rel.id());
  if (log_it != logs_.end()) segments = log_it->second.segments;
  lock.unlock();

  // Copy base + deltas outside the lock (the heavy part); segments are
  // pinned, the base relation is the caller's to keep alive.
  size_t total = rel.size();
  for (const auto& segment : segments) total += segment->tuples.size();
  auto out = std::make_shared<Relation>(
      Relation::Allocate(topology, total, num_chunks));
  size_t cursor_chunk = 0;
  size_t cursor_offset = 0;
  const auto append = [&](const Tuple* data, size_t n) {
    while (n > 0) {
      Chunk& chunk = out->chunk(static_cast<uint32_t>(cursor_chunk));
      const size_t room = chunk.size - cursor_offset;
      const size_t take = std::min(room, n);
      std::copy(data, data + take, chunk.data + cursor_offset);
      data += take;
      n -= take;
      cursor_offset += take;
      if (cursor_offset == chunk.size && cursor_chunk + 1 < num_chunks) {
        ++cursor_chunk;
        cursor_offset = 0;
      }
    }
  };
  for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
    append(rel.chunk(c).data, rel.chunk(c).size);
  }
  for (const auto& segment : segments) {
    append(segment->tuples.data(), segment->tuples.size());
  }

  lock.lock();
  // A concurrent Ingest may have advanced the version meanwhile; only
  // memoize (and serve) a still-current materialization.
  if (rel.version() != target) return out;
  memo = materialized_.find(key);
  if (memo != materialized_.end()) {
    base_bytes_ -= memo->second.relation->size() * sizeof(Tuple);
  }
  materialized_[key] = Materialized{out, target};
  base_bytes_ += total * sizeof(Tuple);
  return out;
}

std::vector<RunCache::CompactJob> RunCache::CollectCompactJobsLocked() {
  std::vector<CompactJob> jobs;
  for (auto& [relation_id, log] : logs_) {
    if (log.segments.size() < kDeltaLevelFanout) continue;
    // Merging across a live entry's install point would straddle its
    // covered-version boundary and invalidate a warm entry; cut
    // candidate stretches there.
    std::vector<uint64_t> boundaries;
    for (const auto& [key, entry] : entries_) {
      if (key.relation_id == relation_id) {
        boundaries.push_back(entry.covers_version);
      }
    }
    const auto protected_after = [&](uint64_t last_version) {
      return std::find(boundaries.begin(), boundaries.end(), last_version) !=
             boundaries.end();
    };
    size_t i = 0;
    while (i < log.segments.size()) {
      const uint32_t level = log.segments[i]->level;
      size_t j = i + 1;
      while (j < log.segments.size() && log.segments[j]->level == level &&
             !protected_after(log.segments[j - 1]->last_version)) {
        ++j;
      }
      if (j - i >= kDeltaLevelFanout) {
        CompactJob job;
        job.relation_id = relation_id;
        job.sources.assign(log.segments.begin() + static_cast<ptrdiff_t>(i),
                           log.segments.begin() + static_cast<ptrdiff_t>(j));
        jobs.push_back(std::move(job));
      }
      i = j;
    }
  }
  return jobs;
}

void RunCache::CommitCompactJobLocked(CompactJob& job) {
  auto log_it = logs_.find(job.relation_id);
  if (log_it == logs_.end()) return;  // relation invalidated meanwhile
  auto& segments = log_it->second.segments;
  const auto first = std::find(segments.begin(), segments.end(),
                               job.sources.front());
  if (first == segments.end() ||
      static_cast<size_t>(segments.end() - first) < job.sources.size()) {
    return;
  }
  // All sources must still sit contiguously where we left them.
  for (size_t k = 0; k < job.sources.size(); ++k) {
    if (*(first + static_cast<ptrdiff_t>(k)) != job.sources[k]) return;
  }
  const auto last = first + static_cast<ptrdiff_t>(job.sources.size());
  *first = job.merged;
  segments.erase(first + 1, last);
  ++stats_.compactions;
  stats_.compacted_segments += job.sources.size();
  // Same tuples, one segment: resident delta bytes are unchanged.
}

uint64_t RunCache::CompactPending(WorkerTeam* team) {
  std::vector<CompactJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (compacting_) return 0;
    jobs = CollectCompactJobsLocked();
    if (jobs.empty()) return 0;
    compacting_ = true;
  }

  const auto merge_job = [](CompactJob& job) {
    std::vector<Run> runs;
    runs.reserve(job.sources.size());
    uint32_t level = 0;
    for (const auto& segment : job.sources) {
      runs.push_back(segment->AsRun());
      level = std::max(level, segment->level);
    }
    auto merged = std::make_shared<DeltaSegment>();
    merged->tuples = MergeRuns(std::move(runs));
    merged->first_version = job.sources.front()->first_version;
    merged->last_version = job.sources.back()->last_version;
    merged->level = level + 1;
    job.merged = std::move(merged);
  };

  if (team != nullptr && jobs.size() > 1) {
    // Low-priority background shape: one stealable morsel per merge,
    // so idle workers drain the compaction backlog (docs/cache.md).
    PhasePipeline pipeline(team->topology(), team->size(),
                           SchedulerKind::kStealing);
    pipeline.AddPhase(
        kPhaseSortPublic,
        [&jobs, team] {
          std::vector<Morsel> morsels;
          for (uint32_t j = 0; j < jobs.size(); ++j) {
            morsels.push_back(Morsel{j % team->size(), j, 0, 0});
          }
          return morsels;
        },
        [&](WorkerContext&, const Morsel& morsel) {
          merge_job(jobs[morsel.task]);
        });
    pipeline.Run(*team);
  } else {
    for (CompactJob& job : jobs) merge_job(job);
  }

  uint64_t committed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (CompactJob& job : jobs) {
      const uint64_t before = stats_.compactions;
      CommitCompactJobLocked(job);
      committed += stats_.compactions - before;
    }
    compacting_ = false;
  }
  if (committed > 0) {
    CompactionCounter().Add(committed);
    obs::TraceInstant(obs::kCatCache, "cache.compact", "merges", committed);
  }
  return committed;
}

void RunCache::EvictLruLocked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (victim == entries_.end() ||
        it->second.lru_tick < victim->second.lru_tick) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return;
  base_bytes_ -= victim->second.bytes;
  entries_.erase(victim);
  ++stats_.evictions;
  EvictionCounter().Add(1);
  obs::TraceInstant(obs::kCatCache, "cache.evict");
}

uint64_t RunCache::EvictToFit(uint64_t target_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t before = base_bytes_ + delta_bytes_;
  if (before <= target_bytes) return 0;
  // Memoized materializations are pure recomputations — drop them first.
  for (auto it = materialized_.begin(); it != materialized_.end();) {
    base_bytes_ -= it->second.relation->size() * sizeof(Tuple);
    it = materialized_.erase(it);
    if (base_bytes_ + delta_bytes_ <= target_bytes) break;
  }
  while (base_bytes_ + delta_bytes_ > target_bytes && !entries_.empty()) {
    EvictLruLocked();
  }
  return before - (base_bytes_ + delta_bytes_);
}

void RunCache::InvalidateRelation(uint64_t relation_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.relation_id == relation_id) {
      base_bytes_ -= it->second.bytes;
      it = entries_.erase(it);
      ++stats_.evictions;
      EvictionCounter().Add(1);
    } else {
      ++it;
    }
  }
  for (auto it = materialized_.begin(); it != materialized_.end();) {
    if (it->first.relation_id == relation_id) {
      base_bytes_ -= it->second.relation->size() * sizeof(Tuple);
      it = materialized_.erase(it);
    } else {
      ++it;
    }
  }
  auto log = logs_.find(relation_id);
  if (log != logs_.end()) {
    for (const auto& segment : log->second.segments) {
      delta_bytes_ -= segment->bytes();
    }
    logs_.erase(log);
  }
}

void RunCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  materialized_.clear();
  logs_.clear();
  base_bytes_ = 0;
  delta_bytes_ = 0;
}

uint64_t RunCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_bytes_ + delta_bytes_;
}

CacheStats RunCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.base_bytes = base_bytes_;
  out.delta_bytes = delta_bytes_;
  return out;
}

}  // namespace mpsm::cache

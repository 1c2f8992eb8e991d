#include "recovery/recovery_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/tuple.h"

namespace mpsm::recovery {

namespace {

obs::Counter& ResumeCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_resumes_total",
      "Queries that re-attached durable state from a manifest");
  return c;
}
obs::Counter& ColdFallbackCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_cold_fallbacks_total",
      "Manifests rejected (fingerprint/version/header mismatch) in favor "
      "of a cold run");
  return c;
}
obs::Counter& TornTailCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_torn_tails_total",
      "Torn/corrupt manifest tails truncated during replay");
  return c;
}
obs::Counter& RunsDroppedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_recovery_runs_dropped_total",
      "Recorded runs rejected at resume (implausible record or content "
      "checksum mismatch)");
  return c;
}

std::string HexHash(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// A run record is plausible when it could have been written by this
/// query: a legal worker id, at least one page, legal per-page counts,
/// and non-decreasing min keys (runs are spooled in sorted order).
bool PlausibleRun(const RunRecord& run, const QueryFingerprint& fp) {
  if (run.run_id >= fp.team_size || run.pages.empty()) return false;
  uint64_t prev_key = 0;
  for (const disk::PageIndexEntry& e : run.pages) {
    if (e.tuple_count == 0 || e.tuple_count > fp.tuples_per_page) {
      return false;
    }
    if (e.min_key < prev_key) return false;
    prev_key = e.min_key;
  }
  return true;
}

}  // namespace

bool ResumeState::HasWork() const {
  for (const auto& run : public_runs) {
    if (run.has_value()) return true;
  }
  for (const auto& run : private_runs) {
    if (run.has_value()) return true;
  }
  for (const auto& state : chunk_states) {
    if (state.has_value()) return true;
  }
  return false;
}

QueryFingerprint FingerprintFor(const Relation& r, const Relation& s,
                                uint32_t team_size, size_t tuples_per_page) {
  QueryFingerprint fp;
  fp.r_id = r.id();
  fp.r_version = r.version();
  fp.r_tuples = r.size();
  fp.s_id = s.id();
  fp.s_version = s.version();
  fp.s_tuples = s.size();
  fp.join_kind = 0;  // D-MPSM is inner-only
  fp.team_size = team_size;
  fp.tuples_per_page = tuples_per_page;
  return fp;
}

RecoveryManager::RecoveryManager(RecoveryManagerOptions options)
    : options_(std::move(options)) {}

std::string RecoveryManager::JournalPath(const QueryFingerprint& fp) const {
  return options_.dir + "/mpsm_manifest_" + HexHash(fp.Hash()) + ".jnl";
}

std::string RecoveryManager::SpoolPath(const QueryFingerprint& fp) const {
  return options_.dir + "/mpsm_spool_" + HexHash(fp.Hash()) + ".pages";
}

Result<ResumeState> RecoveryManager::Load(const QueryFingerprint& fp) {
  obs::TraceSpan span(obs::kCatRecovery, "recovery.load");
  ResumeState state;
  state.public_runs.resize(fp.team_size);
  state.private_runs.resize(fp.team_size);
  state.chunk_states.resize(fp.team_size);

  auto replay = JoinJournal::ReplayFile(JournalPath(fp));
  if (!replay.ok()) {
    if (replay.status().code() == StatusCode::kNotFound) {
      return state;  // first run of this query: cold, nothing stale
    }
    if (replay.status().code() == StatusCode::kInvalidArgument) {
      // Headerless garbage at our path: retire it so it cannot shadow
      // future manifests, then run cold.
      ColdFallbackCounter().Add();
      obs::TraceInstant(obs::kCatRecovery, "recovery.cold_fallback");
      Retire(fp);
      return state;
    }
    return replay.status();
  }

  if (replay->tail_truncated) {
    TornTailCounter().Add();
    obs::TraceInstant(obs::kCatRecovery, "recovery.torn_tail_truncated");
    state.tail_truncated = true;
  }

  if (!(replay->fingerprint == fp)) {
    // The inputs changed (relation version bump, different team size or
    // geometry): every durable artifact is stale. Cold run.
    ColdFallbackCounter().Add();
    obs::TraceInstant(obs::kCatRecovery, "recovery.cold_fallback");
    Retire(fp);
    return state;
  }

  uint64_t max_page = 0;
  bool any_pages = false;
  for (RunRecord& run : replay->runs) {
    if (!PlausibleRun(run, fp)) {
      RunsDroppedCounter().Add();
      continue;
    }
    for (const disk::PageIndexEntry& e : run.pages) {
      max_page = std::max(max_page, e.page);
    }
    any_pages = true;
    auto& slot = run.is_private ? state.private_runs[run.run_id]
                                : state.public_runs[run.run_id];
    slot = std::move(run);  // duplicate records: last wins
  }
  state.adopted_pages = any_pages ? max_page + 1 : 0;

  for (ChunkRecord& chunk : replay->chunks) {
    if (chunk.worker >= fp.team_size) continue;
    state.chunk_states[chunk.worker] = std::move(chunk.state);
  }

  // The spool file must be able to contain every recorded page; a
  // missing or short spool means the manifest outlived its data (e.g.
  // manual cleanup) and nothing is re-attachable.
  if (state.adopted_pages > 0) {
    const uint64_t page_bytes =
        fp.tuples_per_page * sizeof(Tuple) + sizeof(uint64_t);
    struct stat st{};
    if (::stat(SpoolPath(fp).c_str(), &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < state.adopted_pages * page_bytes) {
      ColdFallbackCounter().Add();
      obs::TraceInstant(obs::kCatRecovery, "recovery.cold_fallback");
      Retire(fp);
      return ResumeState{};
    }
  }

  if (options_.verify_runs) VerifyRuns(fp, state);

  if (state.HasWork()) {
    ResumeCounter().Add();
    obs::TraceInstant(obs::kCatRecovery, "recovery.resume");
  }
  return state;
}

void RecoveryManager::VerifyRuns(const QueryFingerprint& fp,
                                 ResumeState& state) const {
  obs::TraceSpan span(obs::kCatRecovery, "recovery.verify_runs");
  const size_t page_bytes =
      fp.tuples_per_page * sizeof(Tuple) + sizeof(uint64_t);
  const int fd = ::open(SpoolPath(fp).c_str(), O_RDONLY);
  if (fd < 0) {
    // Already stat-checked above; a racing removal drops everything.
    for (auto& run : state.public_runs) run.reset();
    for (auto& run : state.private_runs) run.reset();
    return;
  }
  std::vector<char> page(page_bytes);
  auto verify_one = [&](const RunRecord& run) {
    // Checksum 0 means the producer opted out of content checksums
    // (RecoveryOptions::checksum_runs); the structural ladder in
    // Load already validated the run, so keep it.
    if (run.content_checksum == 0) return true;
    uint64_t checksum = 0xcbf29ce484222325ull;
    for (const disk::PageIndexEntry& e : run.pages) {
      size_t done = 0;
      while (done < page_bytes) {
        const ssize_t n =
            ::pread(fd, page.data() + done, page_bytes - done,
                    static_cast<off_t>(e.page * page_bytes + done));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        done += static_cast<size_t>(n);
      }
      uint64_t stored_count = 0;
      std::memcpy(&stored_count, page.data(), sizeof(stored_count));
      if (stored_count != e.tuple_count) return false;
      checksum = Fnv1a(page.data() + sizeof(stored_count),
                       stored_count * sizeof(Tuple), checksum);
    }
    return checksum == run.content_checksum;
  };
  for (auto* runs : {&state.public_runs, &state.private_runs}) {
    for (auto& run : *runs) {
      if (run.has_value() && !verify_one(*run)) {
        RunsDroppedCounter().Add();
        run.reset();
      }
    }
  }
  ::close(fd);
}

void RecoveryManager::Retire(const QueryFingerprint& fp) const {
  JoinJournal::Remove(JournalPath(fp));
  ::unlink(SpoolPath(fp).c_str());
}

}  // namespace mpsm::recovery

// RecoveryManager: discovery and validation of durable join state
// (docs/recovery.md).
//
// The manager maps a query fingerprint to its two on-disk artifacts —
// the manifest (JoinJournal) and the persistent spool file — replays
// and validates the manifest, and assembles a ResumeState the D-MPSM
// executor consumes: which spooled runs can be re-attached without
// re-sorting, which phase-4 chunk walks are already complete, and how
// many spool pages the restarted PageStore must adopt.
//
// Validation is strict and failure is always soft: a missing manifest,
// a fingerprint/version mismatch, or an implausible record each
// degrade to a cold run (stale artifacts are removed so they cannot be
// matched again); only a torn tail is *repaired* (truncated) and
// resumed past. The executor therefore never sees invalid state — a
// ResumeState either re-attaches verified durable work or is empty.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recovery/join_journal.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::recovery {

/// Validated durable state for one restarted query. Default-constructed
/// = cold start (nothing to re-attach).
struct ResumeState {
  /// Per-worker re-attachable spooled runs (slot w empty when worker
  /// w's run did not make it to the manifest before the crash).
  std::vector<std::optional<RunRecord>> public_runs;
  std::vector<std::optional<RunRecord>> private_runs;
  /// Per-worker serialized consumer state of completed phase-4 walks.
  std::vector<std::optional<std::string>> chunk_states;
  /// Page ids [0, adopted_pages) of the spool file hold durable data
  /// referenced above; the restarted PageStore adopts them.
  uint64_t adopted_pages = 0;
  /// A torn/corrupt manifest tail was truncated during replay.
  bool tail_truncated = false;

  /// True when any durable work can be skipped on resume.
  bool HasWork() const;
};

/// Crash-safe restartability of the D-MPSM spill path, set once on
/// EngineOptions::recovery (docs/recovery.md). Enabled, a D-MPSM
/// execution spools through a persistent named file and commits a
/// checksummed manifest record after each durable run and each
/// completed chunk walk. A repeat Execute of the *same* query (inputs,
/// versions, team size, page geometry: the manifest fingerprint)
/// re-attaches the durable runs and skips completed chunks; any
/// mismatch falls back to a clean cold run. Engine::Resume is Execute
/// with `enabled` switched on.
struct RecoveryOptions {
  bool enabled = false;
  /// Manifest + persistent-spool directory; empty uses the D-MPSM
  /// spill directory (DMpsmOptions::directory).
  std::string dir;
  /// Re-read and checksum every recorded run during Load (paranoid
  /// resume; catches spool corruption the manifest cannot see).
  bool verify_runs = false;

  /// Record an fnv1a checksum over each run's tuple content in its
  /// manifest record (costs one pass over every spooled byte on the
  /// sort path). Only verify_runs reads it; a run committed without one
  /// (checksum 0) is re-attached on structural validation alone.
  bool checksum_runs = false;

  /// Per-commit durability. Relaxed (the default) makes every commit
  /// process-crash durable — the run's write-backs have completed and
  /// the manifest record is written before the commit returns, so a
  /// SIGKILL'd query resumes from it via the surviving OS page cache —
  /// and defers device fdatasyncs to query end (a power cut may lose
  /// the un-synced tail; resume treats it as ordinary lost work).
  /// Strict pays an fdatasync write barrier on the spool plus one on
  /// the manifest *per commit* (~2 device flushes each, D-MPSM commits
  /// 3x team_size times per query) for power-loss-grade durability.
  bool strict_sync = false;

  /// Keep the manifest and spool file after a *successful* run instead
  /// of retiring them (tests and the crash harness inspect/truncate
  /// them). Failed runs always keep their artifacts for the retry.
  bool retain_artifacts = false;

  /// Crash injection (tools/crash_harness): SIGKILL this process right
  /// after the n-th durable manifest commit. 0 = off.
  uint64_t kill_after_commits = 0;
};

/// One journaled query: its manifest and persistent spool file
/// (RecoveryManager::JournalPath / SpoolPath), the durable state a
/// previous incarnation left there, and the settings it commits under.
/// Engine::Execute builds one per query; DMpsmJoin::Execute commits to
/// it.
struct QueryJournal {
  std::string journal_path;
  std::string spool_path;
  /// Validated durable state (RecoveryManager::Load); empty = cold
  /// start.
  ResumeState resume;
  /// EngineOptions::recovery; the executor reads checksum_runs,
  /// strict_sync, retain_artifacts and kill_after_commits.
  RecoveryOptions options;
};

/// How the manager finds and checks durable state.
struct RecoveryManagerOptions {
  /// Directory holding manifests and persistent spool files.
  std::string dir = "/tmp";
  /// Re-read every re-attachable run from the spool file and verify its
  /// content checksum; mismatching runs are dropped from the
  /// ResumeState (re-spooled instead). Costs one full read of the
  /// durable runs — tests and paranoid deployments.
  bool verify_runs = false;
  /// Spool page geometry (must match the query's DMpsmOptions;
  /// verify_runs decodes pages with it).
  size_t tuples_per_page = 4096;
};

/// Fingerprint of a D-MPSM join of `r` (private) with `s` (public) on
/// `team_size` workers. D-MPSM is inner-only, so the kind is fixed.
QueryFingerprint FingerprintFor(const Relation& r, const Relation& s,
                                uint32_t team_size, size_t tuples_per_page);

class RecoveryManager {
 public:
  explicit RecoveryManager(RecoveryManagerOptions options);

  /// Artifact paths for `fp` (derived from its hash; stable across
  /// restarts of the same query).
  std::string JournalPath(const QueryFingerprint& fp) const;
  std::string SpoolPath(const QueryFingerprint& fp) const;

  /// Replays and validates the manifest for `fp`. No manifest, or a
  /// manifest whose header does not match `fp`, yields an empty (cold)
  /// ResumeState — never an error; stale mismatching artifacts are
  /// removed. I/O errors reading an existing manifest do surface.
  Result<ResumeState> Load(const QueryFingerprint& fp);

  const RecoveryManagerOptions& options() const { return options_; }

 private:
  /// Deletes both artifacts (Load's removal of stale state; a query
  /// that completes retires its own in DMpsmJoin::Execute).
  void Retire(const QueryFingerprint& fp) const;

  /// Drops runs whose spool content no longer matches their recorded
  /// checksum (options_.verify_runs).
  void VerifyRuns(const QueryFingerprint& fp, ResumeState& state) const;

  RecoveryManagerOptions options_;
};

}  // namespace mpsm::recovery
